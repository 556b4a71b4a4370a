//===- support/Sockets.cpp ------------------------------------------------===//

#include "support/Sockets.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ccra;

namespace {

void setError(std::string *Err, const char *What) {
  if (Err)
    *Err = std::string(What) + ": " + std::strerror(errno);
}

/// Every connected socket is switched to O_NONBLOCK so that send()/recv()
/// can never block past the poll() deadline: a full send buffer (slow
/// client that stopped reading) surfaces as EAGAIN and the transfer loop
/// re-checks the total deadline instead of wedging in the kernel.
bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Remaining milliseconds until \p Deadline (-1 = no deadline), clamped to
/// >= 0 once a deadline exists.
int remainingMs(std::chrono::steady_clock::time_point Deadline,
                bool HasDeadline) {
  if (!HasDeadline)
    return -1;
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - std::chrono::steady_clock::now())
                  .count();
  return Left < 0 ? 0 : static_cast<int>(Left);
}

/// Waits for \p Events on \p Fd until the deadline. Returns Ok when ready,
/// Timeout/Error otherwise.
IoStatus waitReady(int Fd, short Events,
                   std::chrono::steady_clock::time_point Deadline,
                   bool HasDeadline, std::string *Err) {
  for (;;) {
    pollfd P{};
    P.fd = Fd;
    P.events = Events;
    int N = ::poll(&P, 1, remainingMs(Deadline, HasDeadline));
    if (N > 0)
      return IoStatus::Ok; // readable/writable, or HUP/ERR surfaced by I/O
    if (N == 0)
      return IoStatus::Timeout;
    if (errno == EINTR)
      continue;
    setError(Err, "poll");
    return IoStatus::Error;
  }
}

std::chrono::steady_clock::time_point deadlineFrom(int TimeoutMs) {
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(TimeoutMs < 0 ? 0 : TimeoutMs);
}

} // namespace

Socket &Socket::operator=(Socket &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Other.Fd = -1;
  }
  return *this;
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Socket::shutdownWrite() {
  return Fd >= 0 && ::shutdown(Fd, SHUT_WR) == 0;
}

IoStatus Socket::sendAll(const void *Data, std::size_t Len, int TimeoutMs,
                         std::string *Err) {
  if (Fd < 0) {
    if (Err)
      *Err = "send on closed socket";
    return IoStatus::Error;
  }
  const bool HasDeadline = TimeoutMs >= 0;
  const auto Deadline = deadlineFrom(TimeoutMs);
  const char *P = static_cast<const char *>(Data);
  std::size_t Sent = 0;
  while (Sent < Len) {
    IoStatus S = waitReady(Fd, POLLOUT, Deadline, HasDeadline, Err);
    if (S != IoStatus::Ok)
      return S;
    ssize_t N = ::send(Fd, P + Sent, Len - Sent, MSG_NOSIGNAL);
    if (N > 0) {
      Sent += static_cast<std::size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    if (N < 0 && (errno == EPIPE || errno == ECONNRESET))
      return IoStatus::Closed;
    setError(Err, "send");
    return IoStatus::Error;
  }
  return IoStatus::Ok;
}

IoStatus Socket::recvAll(void *Data, std::size_t Len, int TimeoutMs,
                         std::string *Err) {
  if (Fd < 0) {
    if (Err)
      *Err = "recv on closed socket";
    return IoStatus::Error;
  }
  const bool HasDeadline = TimeoutMs >= 0;
  const auto Deadline = deadlineFrom(TimeoutMs);
  char *P = static_cast<char *>(Data);
  std::size_t Got = 0;
  while (Got < Len) {
    IoStatus S = waitReady(Fd, POLLIN, Deadline, HasDeadline, Err);
    if (S != IoStatus::Ok)
      return S;
    ssize_t N = ::recv(Fd, P + Got, Len - Got, 0);
    if (N > 0) {
      Got += static_cast<std::size_t>(N);
      continue;
    }
    if (N == 0)
      return IoStatus::Closed;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
      continue;
    if (errno == ECONNRESET)
      return IoStatus::Closed;
    setError(Err, "recv");
    return IoStatus::Error;
  }
  return IoStatus::Ok;
}

std::size_t Socket::sendSome(const void *Data, std::size_t Len,
                             IoStatus &Status) {
  if (Fd < 0) {
    Status = IoStatus::Error;
    return 0;
  }
  for (;;) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N >= 0) {
      Status = IoStatus::Ok;
      return static_cast<std::size_t>(N);
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status = IoStatus::Ok;
      return 0;
    }
    Status = (errno == EPIPE || errno == ECONNRESET) ? IoStatus::Closed
                                                     : IoStatus::Error;
    return 0;
  }
}

std::size_t Socket::recvSome(void *Data, std::size_t Len, IoStatus &Status) {
  if (Fd < 0) {
    Status = IoStatus::Error;
    return 0;
  }
  for (;;) {
    ssize_t N = ::recv(Fd, Data, Len, 0);
    if (N > 0) {
      Status = IoStatus::Ok;
      return static_cast<std::size_t>(N);
    }
    if (N == 0) {
      Status = IoStatus::Closed;
      return 0;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status = IoStatus::Ok;
      return 0;
    }
    Status = errno == ECONNRESET ? IoStatus::Closed : IoStatus::Error;
    return 0;
  }
}

Socket Socket::connectUnix(const std::string &Path, std::string *Err) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "unix socket path too long: " + Path;
    return Socket();
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Err, "socket");
    return Socket();
  }
  // Blocking connect (loopback/unix — effectively instant), then switch to
  // non-blocking for the deadline-bounded transfer loops.
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      !setNonBlocking(Fd)) {
    setError(Err, "connect");
    ::close(Fd);
    return Socket();
  }
  return Socket(Fd);
}

Socket Socket::connectTcp(int Port, std::string *Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Err, "socket");
    return Socket();
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      !setNonBlocking(Fd)) {
    setError(Err, "connect");
    ::close(Fd);
    return Socket();
  }
  return Socket(Fd);
}

ListenSocket::ListenSocket(ListenSocket &&Other) noexcept
    : Fd(Other.Fd), Port(Other.Port), UnixPath(std::move(Other.UnixPath)) {
  Other.Fd = -1;
  Other.UnixPath.clear();
}

ListenSocket &ListenSocket::operator=(ListenSocket &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Port = Other.Port;
    UnixPath = std::move(Other.UnixPath);
    Other.Fd = -1;
    Other.UnixPath.clear();
  }
  return *this;
}

void ListenSocket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (!UnixPath.empty()) {
    ::unlink(UnixPath.c_str());
    UnixPath.clear();
  }
}

ListenSocket ListenSocket::listenUnix(const std::string &Path, int Backlog,
                                      std::string *Err) {
  ListenSocket L;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "unix socket path too long: " + Path;
    return L;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ::unlink(Path.c_str()); // stale socket file from a crashed server

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Err, "socket");
    return L;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, Backlog) != 0) {
    setError(Err, "bind/listen");
    ::close(Fd);
    return L;
  }
  L.Fd = Fd;
  L.UnixPath = Path;
  return L;
}

ListenSocket ListenSocket::listenTcp(int Port, int Backlog, std::string *Err) {
  ListenSocket L;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Err, "socket");
    return L;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, Backlog) != 0) {
    setError(Err, "bind/listen");
    ::close(Fd);
    return L;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    L.Port = ntohs(Addr.sin_port);
  L.Fd = Fd;
  return L;
}

Socket ListenSocket::accept(int TimeoutMs, IoStatus &Status,
                            std::string *Err) {
  if (Fd < 0) {
    Status = IoStatus::Closed;
    return Socket();
  }
  const bool HasDeadline = TimeoutMs >= 0;
  const auto Deadline = deadlineFrom(TimeoutMs);
  for (;;) {
    Status = waitReady(Fd, POLLIN, Deadline, HasDeadline, Err);
    if (Status != IoStatus::Ok)
      return Socket();
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn >= 0) {
      if (!setNonBlocking(Conn)) {
        setError(Err, "fcntl");
        ::close(Conn);
        Status = IoStatus::Error;
        return Socket();
      }
      int One = 1;
      ::setsockopt(Conn, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      Status = IoStatus::Ok;
      return Socket(Conn);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED)
      continue;
    if (errno == EBADF || errno == EINVAL) {
      Status = IoStatus::Closed;
      return Socket();
    }
    setError(Err, "accept");
    Status = IoStatus::Error;
    return Socket();
  }
}

Socket ListenSocket::acceptNonBlocking(IoStatus &Status, std::string *Err) {
  if (Fd < 0) {
    Status = IoStatus::Closed;
    return Socket();
  }
  setNonBlocking(Fd); // idempotent; the blocking accept() path polls anyway
  for (;;) {
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn >= 0) {
      if (!setNonBlocking(Conn)) {
        setError(Err, "fcntl");
        ::close(Conn);
        Status = IoStatus::Error;
        return Socket();
      }
      int One = 1;
      ::setsockopt(Conn, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      Status = IoStatus::Ok;
      return Socket(Conn);
    }
    if (errno == EINTR || errno == ECONNABORTED)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status = IoStatus::Timeout;
      return Socket();
    }
    if (errno == EBADF || errno == EINVAL) {
      Status = IoStatus::Closed;
      return Socket();
    }
    // EMFILE/ENFILE under connection storms: report Error; the caller
    // backs off instead of spinning on the ready listener.
    setError(Err, "accept");
    Status = IoStatus::Error;
    return Socket();
  }
}

// --- EpollHandle ---------------------------------------------------------

EpollHandle &EpollHandle::operator=(EpollHandle &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Other.Fd = -1;
  }
  return *this;
}

bool EpollHandle::create(std::string *Err) {
  close();
  Fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (Fd < 0) {
    setError(Err, "epoll_create1");
    return false;
  }
  return true;
}

void EpollHandle::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

namespace {
epoll_event makeEvent(std::uint64_t Data, bool Read, bool Write) {
  epoll_event Ev{};
  Ev.events = (Read ? EPOLLIN : 0u) | (Write ? EPOLLOUT : 0u) | EPOLLRDHUP;
  Ev.data.u64 = Data;
  return Ev;
}
} // namespace

bool EpollHandle::add(int TargetFd, std::uint64_t Data, bool Read, bool Write,
                      std::string *Err) {
  epoll_event Ev = makeEvent(Data, Read, Write);
  if (::epoll_ctl(Fd, EPOLL_CTL_ADD, TargetFd, &Ev) != 0) {
    setError(Err, "epoll_ctl(ADD)");
    return false;
  }
  return true;
}

bool EpollHandle::modify(int TargetFd, std::uint64_t Data, bool Read,
                         bool Write, std::string *Err) {
  epoll_event Ev = makeEvent(Data, Read, Write);
  if (::epoll_ctl(Fd, EPOLL_CTL_MOD, TargetFd, &Ev) != 0) {
    setError(Err, "epoll_ctl(MOD)");
    return false;
  }
  return true;
}

bool EpollHandle::remove(int TargetFd) {
  return ::epoll_ctl(Fd, EPOLL_CTL_DEL, TargetFd, nullptr) == 0;
}

int EpollHandle::wait(std::vector<EpollEvent> &Out, int TimeoutMs,
                      std::string *Err) {
  Out.clear();
  epoll_event Events[256];
  int N;
  do {
    N = ::epoll_wait(Fd, Events, 256, TimeoutMs);
  } while (N < 0 && errno == EINTR);
  if (N < 0) {
    setError(Err, "epoll_wait");
    return -1;
  }
  Out.reserve(static_cast<std::size_t>(N));
  for (int I = 0; I < N; ++I) {
    EpollEvent E;
    E.Data = Events[I].data.u64;
    E.Readable = (Events[I].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    E.Writable = (Events[I].events & EPOLLOUT) != 0;
    E.Broken = (Events[I].events & (EPOLLHUP | EPOLLERR)) != 0;
    Out.push_back(E);
  }
  return N;
}

// --- WakeEvent -----------------------------------------------------------

WakeEvent &WakeEvent::operator=(WakeEvent &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Other.Fd = -1;
  }
  return *this;
}

bool WakeEvent::create(std::string *Err) {
  close();
  Fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (Fd < 0) {
    setError(Err, "eventfd");
    return false;
  }
  return true;
}

void WakeEvent::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void WakeEvent::signal() {
  if (Fd < 0)
    return;
  std::uint64_t One = 1;
  ssize_t N;
  do {
    N = ::write(Fd, &One, sizeof(One));
  } while (N < 0 && errno == EINTR);
  // EAGAIN means the counter is already saturated: the wakeup is pending.
}

void WakeEvent::drain() {
  if (Fd < 0)
    return;
  std::uint64_t Count;
  while (::read(Fd, &Count, sizeof(Count)) > 0) {
  }
}

// --- TimerFd -------------------------------------------------------------

TimerFd &TimerFd::operator=(TimerFd &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Other.Fd = -1;
  }
  return *this;
}

bool TimerFd::create(int IntervalMs, std::string *Err) {
  close();
  Fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (Fd < 0) {
    setError(Err, "timerfd_create");
    return false;
  }
  itimerspec Spec{};
  Spec.it_interval.tv_sec = IntervalMs / 1000;
  Spec.it_interval.tv_nsec = static_cast<long>(IntervalMs % 1000) * 1000000;
  Spec.it_value = Spec.it_interval;
  if (::timerfd_settime(Fd, 0, &Spec, nullptr) != 0) {
    setError(Err, "timerfd_settime");
    close();
    return false;
  }
  return true;
}

void TimerFd::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void TimerFd::drain() {
  if (Fd < 0)
    return;
  std::uint64_t Expirations;
  while (::read(Fd, &Expirations, sizeof(Expirations)) > 0) {
  }
}
