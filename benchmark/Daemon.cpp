//===- benchmark/Daemon.cpp - ccra_serve process supervision --------------===//

#include "Bench.h"

#include "service/Client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace ccra;

namespace bench {

namespace {

/// How long a daemon may take to bind its socket and answer HELLO.
constexpr int StartTimeoutMs = 10000;

/// Reads the daemon's one stdout line ("listening unix <path>").
bool readListeningLine(int Fd, std::string &Line) {
  auto Deadline = Clock::now() + std::chrono::milliseconds(StartTimeoutMs);
  char C;
  while (Clock::now() < Deadline) {
    pollfd P{Fd, POLLIN, 0};
    int Left = static_cast<int>(std::chrono::duration_cast<
                                    std::chrono::milliseconds>(
                                    Deadline - Clock::now())
                                    .count());
    if (::poll(&P, 1, std::max(Left, 1)) <= 0)
      continue;
    ssize_t N = ::read(Fd, &C, 1);
    if (N <= 0)
      return false;
    if (C == '\n')
      return true;
    Line += C;
  }
  return false;
}

/// User + sys CPU of every thread \p Pid has run so far, from
/// /proc/<pid>/stat (clock-tick resolution); 0 if it cannot be read.
double cpuSecondsSoFar(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  // Fields 14 and 15 (utime, stime) follow the parenthesised command name,
  // which may itself hold spaces; field 3 is the first after it.
  std::size_t Paren = Stat.rfind(')');
  if (Paren == std::string::npos)
    return 0.0;
  std::istringstream Fields(Stat.substr(Paren + 1));
  std::string Skip;
  for (int Field = 3; Field < 14; ++Field)
    Fields >> Skip;
  unsigned long long UserTicks = 0, SysTicks = 0;
  if (!(Fields >> UserTicks >> SysTicks))
    return 0.0;
  return static_cast<double>(UserTicks + SysTicks) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace

Daemon::~Daemon() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
}

bool Daemon::start(const std::string &ServePath, const std::string &Socket,
                   const std::string &LogPath, std::string &Err) {
  SocketPath = Socket;
  int Out[2];
  if (::pipe2(Out, O_CLOEXEC) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
  std::string UnixArg = "--unix=" + Socket;
  char *Argv[] = {const_cast<char *>(ServePath.c_str()),
                  const_cast<char *>(UnixArg.c_str()), nullptr};

  auto Start = Clock::now();
  // vfork: the child shares our address space until exec, so the spawn
  // cost does not grow with this process's footprint. The child only
  // redirects its output and arranges to die with us before exec.
  pid_t Child = ::vfork();
  if (Child == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(Out[1], STDOUT_FILENO);
    if (Log >= 0)
      ::dup2(Log, STDERR_FILENO);
    ::execv(Argv[0], Argv);
    ::_exit(127);
  }
  ::close(Out[1]);
  if (Log >= 0)
    ::close(Log);
  if (Child < 0) {
    ::close(Out[0]);
    Err = std::string("vfork: ") + std::strerror(errno);
    return false;
  }
  Pid = Child;

  std::string Line;
  bool Listening = readListeningLine(Out[0], Line);
  ::close(Out[0]);
  if (!Listening || Line != "listening unix " + Socket) {
    Err = "daemon did not start (see " + LogPath + ")";
    return false;
  }
  ServiceClient Probe;
  if (!Probe.connectUnix(Socket, &Err)) {
    Err = "connect: " + Err;
    return false;
  }
  StartSeconds = secondsSince(Start);
  excludeCpuSoFar();
  return true;
}

void Daemon::excludeCpuSoFar() { CpuExcluded = cpuSecondsSoFar(Pid); }

bool Daemon::stats(TelemetrySnapshot &Out, std::string &Err) const {
  ServiceClient Client;
  ErrorResponse ServerError;
  if (!Client.connectUnix(SocketPath, &Err))
    return false;
  if (Client.stats(Out, ServerError, &Err) != RpcStatus::Ok) {
    Err = "STATS failed: " + Err + ServerError.Message;
    return false;
  }
  return true;
}

bool Daemon::stop(DaemonExit &Out, std::string &Err) {
  if (Pid <= 0) {
    Err = "daemon not running";
    return false;
  }
  ::kill(Pid, SIGTERM);
  int Status = 0;
  rusage Usage{};
  pid_t Reaped;
  do
    Reaped = ::wait4(Pid, &Status, 0, &Usage);
  while (Reaped < 0 && errno == EINTR);
  Pid = -1;
  ::unlink(SocketPath.c_str());
  auto Seconds = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + T.tv_usec / 1e6;
  };
  Out.CpuSeconds =
      Seconds(Usage.ru_utime) + Seconds(Usage.ru_stime) - CpuExcluded;
  Out.MaxRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  if (Reaped < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Err = "daemon did not drain cleanly (status " + std::to_string(Status) +
          ")";
    return false;
  }
  return true;
}

} // namespace bench
