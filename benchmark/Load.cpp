//===- benchmark/Load.cpp - Closed- and open-loop load generators ---------===//

#include "Bench.h"

#include "service/Client.h"

#include <sys/prctl.h>

#include <atomic>
#include <latch>
#include <thread>

using namespace ccra;

namespace bench {

namespace {

constexpr std::size_t MaxErrors = 8;

/// One client thread: its connection and a reusable request.
class Connection {
public:
  Connection(const std::string &Socket, const Population &Pop,
             bool PreferBinary)
      : Socket(Socket), Pop(Pop), PreferBinary(PreferBinary) {}

  bool connect(std::string &Err) {
    if (!Client.connectUnix(Socket, &Err))
      return false;
    Binary = PreferBinary && Client.hello().MaxCodec >= 2;
    return true;
  }

  /// Sends request \p Index and waits for its answer. An OK response is
  /// recorded in \p Out.Seen; anything else counts as failed.
  bool issue(std::uint32_t Index, LoadResult &Out) {
    const Request &R = Pop.Requests[Index];
    const Program &P = Pop.Programs[R.Program];
    Req.Config = R.Config;
    Req.Options = R.Options;
    Req.Mode = R.Mode;
    if (Binary && !P.Binary.empty())
      Req.ModuleBinary.assign(P.Binary);
    else
      Req.ModuleText.assign(P.Text);
    ++Out.Attempted;
    std::string Err;
    RpcStatus Status = Client.allocate(Req, Resp, ServerError, &Err);
    Req.ModuleBinary.clear();
    Req.ModuleText.clear();
    if (Status == RpcStatus::Ok) {
      Out.Seen.push_back({Index, irHash(Resp.AllocatedIr), Resp.Totals});
      return true;
    }
    ++Out.Failed;
    if (Out.Errors.size() < MaxErrors)
      Out.Errors.push_back("request " + std::to_string(Index) + ": status " +
                           std::to_string(static_cast<int>(Status)) + " [" +
                           ServerError.Code + "] " + ServerError.Message +
                           Err);
    if (Status == RpcStatus::Transport && !connect(Err) &&
        Out.Errors.size() < MaxErrors)
      Out.Errors.push_back("reconnect: " + Err);
    return false;
  }

private:
  const std::string &Socket;
  const Population &Pop;
  bool PreferBinary;
  bool Binary = false;
  ServiceClient Client;
  AllocRequest Req;
  AllocResponse Resp;
  ErrorResponse ServerError;
};

/// Runs \p Body(thread index, connection, local result) on \p Clients
/// connected threads started together, then merges their results.
template <typename BodyT>
LoadResult runClients(const std::string &Socket, const Population &Pop,
                      unsigned Clients, bool PreferBinary, BodyT Body) {
  std::vector<LoadResult> Local(Clients);
  std::latch Connected(Clients + 1);
  std::latch Go(1);
  std::vector<std::thread> Threads;
  Clock::time_point Start;
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      Connection Conn(Socket, Pop, PreferBinary);
      std::string Err;
      bool Ok = Conn.connect(Err);
      if (!Ok) {
        ++Local[T].Failed;
        Local[T].Errors.push_back("connect: " + Err);
      }
      Connected.count_down();
      Go.wait();
      if (Ok)
        Body(T, Start, Conn, Local[T]);
    });
  Connected.arrive_and_wait();
  Start = Clock::now();
  Go.count_down();
  for (std::thread &T : Threads)
    T.join();

  LoadResult Out;
  Out.Seconds = secondsSince(Start);
  for (LoadResult &L : Local) {
    Out.LatencyMs.insert(Out.LatencyMs.end(), L.LatencyMs.begin(),
                         L.LatencyMs.end());
    Out.LatenessUs.insert(Out.LatenessUs.end(), L.LatenessUs.begin(),
                          L.LatenessUs.end());
    Out.Seen.insert(Out.Seen.end(), L.Seen.begin(), L.Seen.end());
    Out.Attempted += L.Attempted;
    Out.Failed += L.Failed;
    Out.Consumed += L.Consumed;
    for (std::string &E : L.Errors)
      if (Out.Errors.size() < MaxErrors)
        Out.Errors.push_back(std::move(E));
  }
  return Out;
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

} // namespace

LoadResult closedLoop(const std::string &Socket, const Population &Pop,
                      const Sequence &Seq, std::size_t First, double Seconds,
                      unsigned Clients, bool PreferBinary) {
  std::atomic<std::size_t> Next{First};
  return runClients(
      Socket, Pop, Clients, PreferBinary,
      [&](unsigned, Clock::time_point Start, Connection &Conn,
          LoadResult &Out) {
        auto Deadline = Start + std::chrono::duration<double>(Seconds);
        while (Clock::now() < Deadline) {
          std::size_t Pos = Next.fetch_add(1);
          if (Pos >= Seq.Length)
            return;
          std::uint32_t Index = Seq.At(Pos);
          ++Out.Consumed;
          auto T0 = Clock::now();
          if (Conn.issue(Index, Out))
            Out.LatencyMs.push_back(msBetween(T0, Clock::now()));
        }
      });
}

LoadResult openLoop(const std::string &Socket, const Population &Pop,
                    const Sequence &Seq, std::size_t First, double Seconds,
                    double Rate, unsigned Clients) {
  return runClients(
      Socket, Pop, Clients, /*PreferBinary=*/false,
      [&](unsigned T, Clock::time_point Start, Connection &Conn,
          LoadResult &Out) {
        // Wake-ups within a microsecond of the due time instead of the
        // default 50 us timer slack.
        ::prctl(PR_SET_TIMERSLACK, 1000UL);
        for (std::size_t K = T;; K += Clients) {
          double DueSeconds = static_cast<double>(K) / Rate;
          if (DueSeconds >= Seconds || First + K >= Seq.Length)
            return;
          std::uint32_t Index = Seq.At(First + K);
          auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(DueSeconds));
          std::this_thread::sleep_until(Due);
          ++Out.Consumed;
          auto Sent = Clock::now();
          Out.LatenessUs.push_back(msBetween(Due, Sent) * 1000.0);
          if (Conn.issue(Index, Out))
            Out.LatencyMs.push_back(msBetween(Due, Clock::now()));
        }
      });
}

} // namespace bench
