//===- bench/perf_service.cpp - Allocation service soak benchmark ---------===//
//
// The serving-stack gate: runs an in-process AllocationServer on an
// ephemeral loopback port and drives a mixed soak through real sockets —
// valid allocations over the SPEC proxies under rotating allocator
// configurations, malformed/torn frames on throwaway connections, tiny
// deadlines, and hook-forced queue overflow (SHED) slices — from several
// concurrent client connections.
//
// Every valid response is checked BIT-IDENTICAL (allocated IR text and
// exact cost totals) against an in-process allocation of the same request.
// After the soak, a second phase asserts graceful degradation: a drain is
// requested mid-flight and every outstanding request must still be
// answered (completed or refused with "draining") before wait() quiesces.
//
// Reports throughput and p50/p95/p99 request latency on stdout and writes
// BENCH_service.json. Exits non-zero on any bit-identity divergence,
// unexplained failure, or unclean drain.
//
// Phase 3 is the caching-tier gate: a Zipfian workload (skew 1.1 over the
// proxy x config x mode case population) against a cache-enabled
// server. Every response — cached or cold — is still checked bit-identical
// to in-process allocation, and the phase must clear a fixed floor of
// 6,400 req/s (100x CommittedBaselineRps) with a nonzero hit rate. The
// mixed soak above runs with both caches DISABLED, so it measures the
// engine path.
//
// Phase 3b repeats the Zipf discipline over REAL code: every program
// under examples/corpus_c/ lowered by the C frontend, crossed with the
// allocator rotation and both frequency modes, with requests alternating
// the v1 text and v2 binary wire codecs. Gates: bit-identity on every
// response and a nonzero cache hit rate.
//
// Phase 4 is the connection-scaling gate for the event-loop server: it
// raises RLIMIT_NOFILE, parks --c10k-connections idle peers on the daemon
// (default 10000; 0 skips the phase), verifies allocations still complete
// bit-identical THROUGH the idle crowd, and then drains mid-flight — the
// whole crowd must be swept promptly, not waited out one timeout at a
// time.
//
// The mixed soak alternates wire codecs request-by-request (v1 text /
// v2 binary), so the soak numbers cover both ingestion paths, and it
// gates serve.batch <= 1.5x allocate_total: the response path may not
// cost more than half again the allocation work it transports.
//
//   perf_service [--requests=N] [--clients=N] [--queue=N]
//                [--pool-threads=N] [--zipf-requests=N]
//                [--cache-bytes=N] [--c10k-connections=N]
//                [--real-corpus-requests=N] [--real-corpus=DIR]
//
// Defaults: 10000 requests, 6 clients, 20000 Zipf requests,
// 10000 idle connections — the soak gate CI runs (CI sizes the idle
// crowd down to 5000 to stay within runner fd limits).
//
//===----------------------------------------------------------------------===//

#include "core/EngineBuilder.h"
#include "frontend/Frontend.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Rng.h"
#include "workloads/SpecProxies.h"

#include <cmath>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

using namespace ccra;

namespace {

/// The soak throughput BENCH_service.json recorded before the caching
/// tier landed. The Zipf phase gates on 100x this number. The figure was
/// timeout-bound (each torn-frame probe waited out a 2 s client timeout
/// before probes half-closed), so it is kept only as the fixed unit of
/// that floor, not as a measure of the cold path.
constexpr double CommittedBaselineRps = 64.0;

struct SoakOptions {
  unsigned Requests = 10000;
  unsigned Clients = 6;
  unsigned QueueCapacity = 64;
  unsigned PoolThreads = 0;
  unsigned MalformedEvery = 23;
  unsigned DeadlineEvery = 41;
  unsigned ShedEvery = 97;
  unsigned ZipfRequests = 20000;
  std::size_t CacheBytes = 64u << 20;
  unsigned C10kConnections = 10000;
  /// Phase 3b: Zipf-sampled serving of the REAL modules the C frontend
  /// lowers from examples/corpus_c/, alternating wire codecs per request.
  /// 0 skips the phase.
  unsigned RealCorpusRequests = 5000;
  std::string RealCorpusDir = std::string(CCRA_SOURCE_DIR) +
                              "/examples/corpus_c";
};

struct SoakCase {
  AllocRequest Request;
  /// The same module as Request.ModuleText in the binary interchange
  /// form; the soak alternates codecs per request so both ingestion
  /// paths carry the traffic.
  std::string ModuleBinary;
  std::string ExpectedIr;
  CostBreakdown ExpectedTotals;
};

struct SoakTally {
  std::atomic<unsigned> Ok{0};
  std::atomic<unsigned> Shed{0};
  std::atomic<unsigned> Deadline{0};
  std::atomic<unsigned> Malformed{0};
  std::atomic<unsigned> Failures{0};
  std::atomic<unsigned> BitDivergences{0};
};

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

/// The case mix: every proxy crossed with a rotation of allocator
/// configurations and frequency modes, expectations precomputed once.
std::vector<SoakCase> buildCases() {
  const AllocatorOptions Configs[] = {improvedOptions(), baseChaitinOptions(),
                                      cbhOptions(), priorityOptions(),
                                      improvedOptimisticOptions()};
  std::vector<SoakCase> Cases;
  for (const std::string &Proxy : specProxyNames()) {
    std::unique_ptr<Module> M = buildSpecProxy(Proxy);
    std::string Text = printed(*M);
    SoakCase Case;
    Case.Request.ModuleText = Text;
    Case.Request.Options = Configs[Cases.size() % 5];
    Case.Request.Mode =
        Cases.size() % 3 == 0 ? FrequencyMode::Static : FrequencyMode::Profile;

    ParseResult PR = parseModule(Text);
    encodeModuleBinary(*PR.M, Case.ModuleBinary);
    FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, Case.Request.Mode);
    AllocationEngine Engine = EngineBuilder(Case.Request.Config)
                                  .options(Case.Request.Options)
                                  .build();
    ModuleAllocationResult R = Engine.allocateModule(*PR.M, Freq);
    Case.ExpectedIr = printed(*PR.M);
    Case.ExpectedTotals = R.Totals;
    Cases.push_back(std::move(Case));
  }
  return Cases;
}

std::string tornFrame(unsigned Seed) {
  Frame F;
  F.Type = FrameType::AllocRequest;
  F.Payload = "config: 9,7,3,3\nmodule:\nmodule torn\n";
  std::string Bytes;
  encodeFrame(F, Bytes);
  return Bytes.substr(0, WireHeaderSize + (Seed % 12));
}

void soakWorker(int Port, const SoakOptions &Opts,
                const std::vector<SoakCase> &Cases, unsigned Worker,
                SoakTally &Tally, std::vector<double> &LatenciesMs,
                std::mutex &Mutex) {
  auto Fail = [&](const std::string &Msg) {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::cerr << "perf_service: worker " << Worker << ": " << Msg << '\n';
    Tally.Failures.fetch_add(1);
  };

  ServiceClient Client;
  std::string Err;
  if (!Client.connectTcp(Port, &Err)) {
    Fail("connect: " + Err);
    return;
  }
  std::vector<double> Local;

  for (unsigned I = Worker; I < Opts.Requests; I += Opts.Clients) {
    if (I % Opts.MalformedEvery == 0) {
      // Abuse burns a throwaway connection; the serving connection and
      // everyone else must be unaffected. The torn frame is followed by a
      // half-close: the server sees EOF mid-frame, answers "malformed" and
      // closes at once, so the probe asserts that close instead of waiting
      // out a client timeout.
      ServiceClient Bad;
      if (Bad.connectTcp(Port, &Err)) {
        Bad.setTimeoutMs(2000);
        bool Torn = I % 2 == 1;
        std::string Bytes = Torn ? tornFrame(I)
                                 : std::string("\x00garbage, not a frame", 21);
        if (Bad.sendRawBytes(Bytes)) {
          Frame Resp;
          if (Torn) {
            Bad.shutdownWrite();
            if (Bad.readResponse(Resp) != FrameReadStatus::Ok ||
                Resp.Type != FrameType::Error ||
                Bad.readResponse(Resp) != FrameReadStatus::Eof)
              Fail("torn-frame probe " + std::to_string(I) +
                   " was not answered and closed");
          } else {
            Bad.readResponse(Resp);
          }
        }
        Bad.close();
        Tally.Malformed.fetch_add(1);
      }
      continue;
    }

    const SoakCase &Case = Cases[I % Cases.size()];
    AllocRequest Request = Case.Request;
    // Alternate wire codecs: odd requests ship the binary module. The
    // expected bytes are identical either way — that IS the contract.
    if (I % 2 == 1 && !Case.ModuleBinary.empty()) {
      Request.ModuleBinary = Case.ModuleBinary;
      Request.ModuleText.clear();
    }
    bool TinyDeadline = I % Opts.DeadlineEvery == 0;
    if (TinyDeadline)
      Request.DeadlineMs = 1;

    AllocResponse Response;
    ErrorResponse ServerError;
    auto Start = std::chrono::steady_clock::now();
    RpcStatus Status = Client.allocate(Request, Response, ServerError, &Err);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

    switch (Status) {
    case RpcStatus::Shed:
      Tally.Shed.fetch_add(1);
      continue;
    case RpcStatus::Rejected:
      if (ServerError.Code == "deadline" && TinyDeadline) {
        Tally.Deadline.fetch_add(1);
        continue;
      }
      Fail("request " + std::to_string(I) + " rejected [" + ServerError.Code +
           "] " + ServerError.Message);
      continue;
    case RpcStatus::Transport:
      Fail("request " + std::to_string(I) + " transport: " + Err);
      if (!Client.connectTcp(Port, &Err)) {
        Fail("reconnect: " + Err);
        return;
      }
      continue;
    case RpcStatus::Ok:
      break;
    }

    if (Response.AllocatedIr != Case.ExpectedIr ||
        !(Response.Totals == Case.ExpectedTotals)) {
      Tally.BitDivergences.fetch_add(1);
      Fail("request " + std::to_string(I) +
           ": response diverges from in-process allocation");
      continue;
    }
    Local.push_back(Ms);
    Tally.Ok.fetch_add(1);
  }

  std::lock_guard<std::mutex> Lock(Mutex);
  LatenciesMs.insert(LatenciesMs.end(), Local.begin(), Local.end());
}

double percentile(std::vector<double> &Sorted, double P);

/// The Zipf phase's case population: every proxy crossed with the full
/// configuration rotation and both frequency modes, so the hot head of the
/// distribution is a handful of (module, options, mode) tuples and the
/// tail still forces cold allocations.
std::vector<SoakCase> buildZipfCases() {
  const AllocatorOptions Configs[] = {improvedOptions(), baseChaitinOptions(),
                                      cbhOptions(), priorityOptions(),
                                      improvedOptimisticOptions()};
  std::vector<SoakCase> Cases;
  for (const std::string &Proxy : specProxyNames()) {
    std::unique_ptr<Module> M = buildSpecProxy(Proxy);
    std::string Text = printed(*M);
    for (const AllocatorOptions &Opts : Configs) {
      for (FrequencyMode Mode :
           {FrequencyMode::Profile, FrequencyMode::Static}) {
        SoakCase Case;
        Case.Request.ModuleText = Text;
        Case.Request.Options = Opts;
        Case.Request.Mode = Mode;

        ParseResult PR = parseModule(Text);
        FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, Mode);
        AllocationEngine Engine = EngineBuilder(Case.Request.Config)
                                      .options(Case.Request.Options)
                                      .build();
        ModuleAllocationResult R = Engine.allocateModule(*PR.M, Freq);
        Case.ExpectedIr = printed(*PR.M);
        Case.ExpectedTotals = R.Totals;
        Cases.push_back(std::move(Case));
      }
    }
  }
  return Cases;
}

/// Phase 3b's case population: every program under \p Dir lowered by the
/// C frontend, crossed with the allocator rotation and both frequency
/// modes — real code on the wire instead of the synthetic proxies. The
/// binary interchange form is precomputed so the phase can alternate
/// codecs per request. Returns an empty vector (phase fails) if any
/// program does not compile.
std::vector<SoakCase> buildRealCorpusCases(const std::string &Dir) {
  const AllocatorOptions Configs[] = {improvedOptions(), baseChaitinOptions(),
                                      cbhOptions(), priorityOptions(),
                                      improvedOptimisticOptions()};
  std::vector<std::string> Paths;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC))
    if (Entry.path().extension() == ".c")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  if (Paths.empty()) {
    std::cerr << "perf_service: real-corpus phase: no .c programs under "
              << Dir << '\n';
    return {};
  }

  std::vector<SoakCase> Cases;
  for (const std::string &Path : Paths) {
    CompileResult CR = Frontend::compileFile(Path);
    if (!CR.ok()) {
      std::cerr << "perf_service: real-corpus phase: " << Path
                << " does not compile\n";
      return {};
    }
    std::string Text = printed(*CR.M);
    for (const AllocatorOptions &Opts : Configs) {
      for (FrequencyMode Mode :
           {FrequencyMode::Profile, FrequencyMode::Static}) {
        SoakCase Case;
        Case.Request.ModuleText = Text;
        Case.Request.Options = Opts;
        Case.Request.Mode = Mode;

        ParseResult PR = parseModule(Text);
        encodeModuleBinary(*PR.M, Case.ModuleBinary);
        FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, Mode);
        AllocationEngine Engine = EngineBuilder(Case.Request.Config)
                                      .options(Case.Request.Options)
                                      .build();
        ModuleAllocationResult R = Engine.allocateModule(*PR.M, Freq);
        Case.ExpectedIr = printed(*PR.M);
        Case.ExpectedTotals = R.Totals;
        Cases.push_back(std::move(Case));
      }
    }
  }
  return Cases;
}

/// Zipf(1.1) cumulative distribution over case ranks; rank 0 is hottest.
std::vector<double> zipfCdf(std::size_t Count) {
  std::vector<double> Cdf;
  Cdf.reserve(Count);
  double Sum = 0;
  for (std::size_t R = 0; R < Count; ++R) {
    Sum += 1.0 / std::pow(static_cast<double>(R + 1), 1.1);
    Cdf.push_back(Sum);
  }
  for (double &V : Cdf)
    V /= Sum;
  return Cdf;
}

struct ZipfResult {
  unsigned Ok = 0;
  unsigned Failures = 0;
  unsigned BitDivergences = 0;
  double Seconds = 0, Rps = 0;
  double P50 = 0, P95 = 0, P99 = 0;
  double Hits = 0, Misses = 0, HitRate = 0;
};

/// Phases 3 and 3b: the caching-tier gate. Pure allocation traffic
/// sampled from a Zipfian distribution against a cache-enabled server;
/// every response is still verified bit-identical to in-process
/// allocation. With \p AlternateCodecs, odd requests ship the binary (v2)
/// module so both wire paths carry the Zipf traffic.
ZipfResult zipfPhase(const SoakOptions &Opts,
                     const std::vector<SoakCase> &Cases, unsigned Requests,
                     bool AlternateCodecs, const char *PhaseName) {
  ZipfResult Result;
  if (Cases.empty()) {
    Result.Failures = 1;
    return Result;
  }
  ServerConfig Config;
  Config.TcpPort = 0;
  Config.QueueCapacity = Opts.QueueCapacity;
  Config.PoolThreads = Opts.PoolThreads;
  Config.CacheBytes = Opts.CacheBytes;
  AllocationServer Server(Config);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "perf_service: " << PhaseName << " phase: " << Err << '\n';
    Result.Failures = 1;
    return Result;
  }
  int Port = Server.boundPort();

  const std::vector<double> Cdf = zipfCdf(Cases.size());
  std::atomic<unsigned> Ok{0}, Failures{0}, BitDivergences{0};
  std::vector<double> LatenciesMs;
  std::mutex Mutex;

  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Opts.Clients; ++W)
    Workers.emplace_back([&, W] {
      auto Fail = [&](const std::string &Msg) {
        std::lock_guard<std::mutex> Lock(Mutex);
        std::cerr << "perf_service: " << PhaseName << " worker " << W
                  << ": " << Msg << '\n';
        Failures.fetch_add(1);
      };
      ServiceClient Client;
      std::string CErr;
      if (!Client.connectTcp(Port, &CErr)) {
        Fail("connect: " + CErr);
        return;
      }
      Rng R(0x21bful + W); // deterministic per-worker sample path
      std::vector<double> Local;
      for (unsigned I = W; I < Requests; I += Opts.Clients) {
        double U = R.nextDouble();
        std::size_t Rank = static_cast<std::size_t>(
            std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
        const SoakCase &Case = Cases[std::min(Rank, Cases.size() - 1)];
        AllocRequest Request = Case.Request;
        if (AlternateCodecs && I % 2 == 1 && !Case.ModuleBinary.empty()) {
          Request.ModuleBinary = Case.ModuleBinary;
          Request.ModuleText.clear();
        }

        AllocResponse Response;
        ErrorResponse ServerError;
        auto T0 = std::chrono::steady_clock::now();
        RpcStatus Status =
            Client.allocate(Request, Response, ServerError, &CErr);
        double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
        if (Status != RpcStatus::Ok) {
          Fail("request " + std::to_string(I) + " status " +
               std::to_string(static_cast<int>(Status)) + ": [" +
               ServerError.Code + "] " + CErr);
          if (Status == RpcStatus::Transport &&
              !Client.connectTcp(Port, &CErr))
            return;
          continue;
        }
        if (Response.AllocatedIr != Case.ExpectedIr ||
            !(Response.Totals == Case.ExpectedTotals)) {
          BitDivergences.fetch_add(1);
          Fail("request " + std::to_string(I) +
               ": response diverges from in-process allocation");
          continue;
        }
        Local.push_back(Ms);
        Ok.fetch_add(1);
      }
      std::lock_guard<std::mutex> Lock(Mutex);
      LatenciesMs.insert(LatenciesMs.end(), Local.begin(), Local.end());
    });
  for (std::thread &T : Workers)
    T.join();
  Result.Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  TelemetrySnapshot Stats = Server.stats();
  Server.requestDrain();
  Server.wait();

  Result.Ok = Ok.load();
  Result.Failures = Failures.load();
  Result.BitDivergences = BitDivergences.load();
  Result.Rps = Result.Seconds > 0 ? Result.Ok / Result.Seconds : 0.0;
  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  Result.P50 = percentile(LatenciesMs, 0.50);
  Result.P95 = percentile(LatenciesMs, 0.95);
  Result.P99 = percentile(LatenciesMs, 0.99);
  Result.Hits = Stats.count(telemetry::CacheHits);
  Result.Misses = Stats.count(telemetry::CacheMisses);
  Result.HitRate = (Result.Hits + Result.Misses) > 0
                       ? Result.Hits / (Result.Hits + Result.Misses)
                       : 0.0;
  return Result;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

/// Phase 2: drain mid-flight. Every request launched before the drain must
/// be answered — completed bit-identical, shed, or refused "draining" —
/// and wait() must quiesce with no client left hanging.
bool drainMidFlight(const SoakOptions &Opts,
                    const std::vector<SoakCase> &Cases) {
  ServerConfig Config;
  Config.TcpPort = 0;
  Config.QueueCapacity = Opts.QueueCapacity;
  Config.PoolThreads = Opts.PoolThreads;
  AllocationServer Server(Config);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "perf_service: drain phase: " << Err << '\n';
    return false;
  }
  int Port = Server.boundPort();

  std::atomic<unsigned> Answered{0};
  std::atomic<unsigned> Hung{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < 4; ++W)
    Workers.emplace_back([&, W] {
      ServiceClient Client;
      std::string CErr;
      if (!Client.connectTcp(Port, &CErr))
        return;
      Client.setTimeoutMs(30000);
      for (unsigned I = 0;; ++I) {
        const SoakCase &Case = Cases[(W + I) % Cases.size()];
        AllocResponse Response;
        ErrorResponse ServerError;
        RpcStatus Status =
            Client.allocate(Case.Request, Response, ServerError, &CErr);
        if (Status == RpcStatus::Ok || Status == RpcStatus::Shed) {
          Answered.fetch_add(1);
          continue;
        }
        if (Status == RpcStatus::Rejected &&
            ServerError.Code == "draining") {
          Answered.fetch_add(1);
          return; // the drain refused us explicitly — clean exit
        }
        if (Status == RpcStatus::Transport)
          return; // connection closed by the drain — also clean
        Hung.fetch_add(1);
        return;
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Server.requestDrain();
  for (std::thread &T : Workers)
    T.join();
  Server.wait();

  // After wait(), the endpoint must be gone.
  ServiceClient Late;
  bool Refused = !Late.connectTcp(Port, &Err);

  bool Clean = Hung.load() == 0 && Answered.load() > 0 && Refused;
  std::cout << "drain: " << Answered.load()
            << " requests answered across the drain, "
            << (Clean ? "clean" : "NOT CLEAN") << '\n';
  return Clean;
}

struct C10kResult {
  unsigned Target = 0;
  unsigned Opened = 0;
  unsigned VerifiedOk = 0;
  double PeakConnections = 0;
  double OpenAtPeak = 0;
  double DrainSeconds = 0;
  bool Ok = false;
  bool DrainClean = false;
};

/// Phase 4: connection scaling. Parks \p Opts.C10kConnections idle peers
/// on the daemon, proves allocations still flow through the crowd
/// bit-identical, then drains mid-flight: the idle crowd and the active
/// workers must all be swept promptly.
C10kResult c10kPhase(const SoakOptions &Opts,
                     const std::vector<SoakCase> &Cases) {
  C10kResult Result;
  Result.Target = Opts.C10kConnections;

  // The server side of the crowd must fit this process's fd limit; raise
  // the soft limit to the hard cap before judging feasibility. The CLIENT
  // side is held by forked children (below), each with its own fd budget,
  // so a 20k-fd container can still park 10k connections on the daemon.
  rlimit Rl{};
  if (getrlimit(RLIMIT_NOFILE, &Rl) == 0 && Rl.rlim_cur < Rl.rlim_max) {
    rlimit Want = Rl;
    Want.rlim_cur = Rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &Want);
    getrlimit(RLIMIT_NOFILE, &Rl);
  }
  rlim_t Needed = static_cast<rlim_t>(Opts.C10kConnections) + 512;
  if (Rl.rlim_cur < Needed) {
    std::cerr << "perf_service: c10k phase: RLIMIT_NOFILE " << Rl.rlim_cur
              << " < required " << Needed << '\n';
    return Result;
  }

  ServerConfig Config;
  Config.TcpPort = 0;
  Config.QueueCapacity = Opts.QueueCapacity;
  Config.PoolThreads = Opts.PoolThreads;
  AllocationServer Server(Config);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "perf_service: c10k phase: " << Err << '\n';
    return Result;
  }
  int Port = Server.boundPort();

  // The idle crowd, held by forked children so the client-side fds come
  // out of THEIR limits, not this process's (the server side alone is
  // 10k fds here). Hellos stay unread in the kernel buffers: an idle
  // peer costs the server one fd and one epoll registration, nothing
  // else. Each child reports how many it opened, then parks until the
  // drain has been verified.
  const unsigned PerChild = 5000;
  const unsigned NumChildren =
      (Opts.C10kConnections + PerChild - 1) / PerChild;
  struct Child {
    pid_t Pid = -1;
    int ReadyFd = -1;   // child -> parent: u32 count of opened conns
    int ReleaseFd = -1; // parent -> child: one byte releases the child
  };
  std::vector<Child> Children;
  unsigned Remaining = Opts.C10kConnections;
  for (unsigned C = 0; C < NumChildren; ++C) {
    unsigned Quota = std::min(PerChild, Remaining);
    Remaining -= Quota;
    int Ready[2], Release[2];
    if (pipe(Ready) != 0 || pipe(Release) != 0) {
      std::cerr << "perf_service: c10k phase: pipe failed\n";
      break;
    }
    pid_t Pid = fork();
    if (Pid < 0) {
      std::cerr << "perf_service: c10k phase: fork failed\n";
      break;
    }
    if (Pid == 0) {
      // Child: open the quota, report, park, exit (the kernel closes the
      // crowd when we _exit; the server sees clean EOFs or is already
      // gone post-drain).
      ::close(Ready[0]);
      ::close(Release[1]);
      std::vector<Socket> Crowd;
      Crowd.reserve(Quota);
      std::string CErr;
      for (unsigned I = 0; I < Quota; ++I) {
        Socket S = Socket::connectTcp(Port, &CErr);
        if (!S.valid())
          break;
        Crowd.push_back(std::move(S));
      }
      std::uint32_t Opened = static_cast<std::uint32_t>(Crowd.size());
      (void)!::write(Ready[1], &Opened, sizeof(Opened));
      char Byte;
      (void)!::read(Release[0], &Byte, 1);
      _exit(0);
    }
    ::close(Ready[1]);
    ::close(Release[0]);
    Children.push_back(Child{Pid, Ready[0], Release[1]});
  }
  unsigned TotalOpened = 0;
  for (Child &C : Children) {
    std::uint32_t Opened = 0;
    if (::read(C.ReadyFd, &Opened, sizeof(Opened)) == sizeof(Opened))
      TotalOpened += Opened;
  }
  Result.Opened = TotalOpened;
  if (TotalOpened < Opts.C10kConnections)
    std::cerr << "perf_service: c10k phase: only " << TotalOpened << " of "
              << Opts.C10kConnections << " connections opened\n";

  // Active traffic through the crowd, still held bit-identical.
  unsigned VerifiedOk = 0, Divergences = 0;
  {
    ServiceClient Client;
    if (!Client.connectTcp(Port, &Err)) {
      std::cerr << "perf_service: c10k phase: active connect: " << Err
                << '\n';
    } else {
      for (unsigned I = 0; I < 100; ++I) {
        const SoakCase &Case = Cases[I % Cases.size()];
        AllocRequest Request = Case.Request;
        if (I % 2 == 1 && !Case.ModuleBinary.empty()) {
          Request.ModuleBinary = Case.ModuleBinary;
          Request.ModuleText.clear();
        }
        AllocResponse Response;
        ErrorResponse ServerError;
        if (Client.allocate(Request, Response, ServerError, &Err) !=
            RpcStatus::Ok)
          continue;
        if (Response.AllocatedIr == Case.ExpectedIr &&
            Response.Totals == Case.ExpectedTotals)
          ++VerifiedOk;
        else
          ++Divergences;
      }
    }
  }
  Result.VerifiedOk = VerifiedOk;

  TelemetrySnapshot Stats = Server.stats();
  Result.PeakConnections = Stats.count(telemetry::ServePeakConnections);
  Result.OpenAtPeak = Stats.count(telemetry::ServeOpenConnections);

  // Drain mid-flight with the whole crowd still parked: active workers
  // must be answered or refused, the idle thousands swept immediately.
  std::atomic<unsigned> Hung{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < 4; ++W)
    Workers.emplace_back([&, W] {
      ServiceClient Client;
      std::string CErr;
      if (!Client.connectTcp(Port, &CErr))
        return;
      Client.setTimeoutMs(30000);
      for (unsigned I = 0;; ++I) {
        const SoakCase &Case = Cases[(W + I) % Cases.size()];
        AllocResponse Response;
        ErrorResponse ServerError;
        RpcStatus Status =
            Client.allocate(Case.Request, Response, ServerError, &CErr);
        if (Status == RpcStatus::Ok || Status == RpcStatus::Shed)
          continue;
        if (Status == RpcStatus::Rejected && ServerError.Code == "draining")
          return;
        if (Status == RpcStatus::Transport)
          return;
        Hung.fetch_add(1);
        return;
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto DrainStart = std::chrono::steady_clock::now();
  Server.requestDrain();
  for (std::thread &T : Workers)
    T.join();
  Server.wait();
  Result.DrainSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - DrainStart)
                            .count();

  ServiceClient Late;
  bool Refused = !Late.connectTcp(Port, &Err);

  // Release and reap the crowd-holders.
  for (Child &C : Children) {
    char Byte = 'g';
    (void)!::write(C.ReleaseFd, &Byte, 1);
  }
  for (Child &C : Children) {
    int Status = 0;
    ::waitpid(C.Pid, &Status, 0);
    ::close(C.ReadyFd);
    ::close(C.ReleaseFd);
  }

  Result.DrainClean = Hung.load() == 0 && Refused &&
                      Result.DrainSeconds < 10.0;
  Result.Ok = Result.Opened >= Result.Target && VerifiedOk > 0 &&
              Divergences == 0 &&
              Result.PeakConnections >=
                  static_cast<double>(Result.Target);
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  SoakOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Unsigned = [&](std::size_t Prefix, unsigned &Out) {
      return std::sscanf(Arg.c_str() + Prefix, "%u", &Out) == 1;
    };
    if (Arg.rfind("--requests=", 0) == 0 && Unsigned(11, Opts.Requests))
      continue;
    if (Arg.rfind("--clients=", 0) == 0 && Unsigned(10, Opts.Clients) &&
        Opts.Clients > 0)
      continue;
    if (Arg.rfind("--queue=", 0) == 0 && Unsigned(8, Opts.QueueCapacity))
      continue;
    if (Arg.rfind("--pool-threads=", 0) == 0 && Unsigned(15, Opts.PoolThreads))
      continue;
    if (Arg.rfind("--zipf-requests=", 0) == 0 && Unsigned(16, Opts.ZipfRequests))
      continue;
    if (Arg.rfind("--c10k-connections=", 0) == 0 &&
        Unsigned(19, Opts.C10kConnections))
      continue;
    if (Arg.rfind("--real-corpus-requests=", 0) == 0 &&
        Unsigned(23, Opts.RealCorpusRequests))
      continue;
    if (Arg.rfind("--real-corpus=", 0) == 0) {
      Opts.RealCorpusDir = Arg.substr(14);
      continue;
    }
    unsigned CacheBytes = 0;
    if (Arg.rfind("--cache-bytes=", 0) == 0 && Unsigned(14, CacheBytes)) {
      Opts.CacheBytes = CacheBytes;
      continue;
    }
    std::cerr << "usage: perf_service [--requests=N] [--clients=N] "
                 "[--queue=N] [--pool-threads=N]\n"
                 "                    [--zipf-requests=N] "
                 "[--cache-bytes=N] [--c10k-connections=N]\n"
                 "                    [--real-corpus-requests=N] "
                 "[--real-corpus=DIR]\n";
    return 2;
  }

  std::vector<SoakCase> Cases = buildCases();

  ServerConfig Config;
  Config.TcpPort = 0;
  Config.QueueCapacity = Opts.QueueCapacity;
  Config.PoolThreads = Opts.PoolThreads;
  // The mixed soak measures the ENGINE path: both caches off, so every
  // valid request is parsed, verified and allocated.
  Config.CacheBytes = 0;
  // SHED slices: every ShedEvery-th admission is forced to overflow, so
  // the soak exercises backpressure even when the queue keeps up.
  std::atomic<unsigned> Admissions{0};
  ServerTestHooks Hooks;
  Hooks.ForceQueueOverflow = [&] {
    return Admissions.fetch_add(1) % Opts.ShedEvery == Opts.ShedEvery - 1;
  };
  AllocationServer Server(Config, Hooks);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "perf_service: " << Err << '\n';
    return 1;
  }

  SoakTally Tally;
  std::vector<double> LatenciesMs;
  std::mutex Mutex;
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Opts.Clients; ++W)
    Workers.emplace_back([&, W] {
      soakWorker(Server.boundPort(), Opts, Cases, W, Tally, LatenciesMs,
                 Mutex);
    });
  for (std::thread &T : Workers)
    T.join();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  TelemetrySnapshot Stats = Server.stats();
  Server.requestDrain();
  Server.wait();

  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  double P50 = percentile(LatenciesMs, 0.50);
  double P95 = percentile(LatenciesMs, 0.95);
  double P99 = percentile(LatenciesMs, 0.99);
  double Throughput = Seconds > 0 ? Tally.Ok.load() / Seconds : 0.0;

  bool DrainClean = drainMidFlight(Opts, Cases);
  bool BitIdentical = Tally.BitDivergences.load() == 0;
  bool Healthy = Tally.Failures.load() == 0 && Tally.Ok.load() > 0;

  // The response-path overhead gate: time spent in serve.batch (frequency
  // analysis, engine setup, response rendering, cache bookkeeping,
  // encoding) on top of the engine's own allocate_total may not exceed
  // half the allocation work again. Module parse and verify run under
  // serve.admit, outside this ratio.
  double ServeBatchMs = Stats.timeMs("serve.batch");
  double AllocateTotalMs = Stats.timeMs("allocate_total");
  double BatchRatio =
      AllocateTotalMs > 0 ? ServeBatchMs / AllocateTotalMs : 0.0;
  bool BatchLean = AllocateTotalMs > 0 && BatchRatio <= 1.5;

  // Phase 3: the Zipfian caching-tier gate.
  std::vector<SoakCase> ZipfCases = buildZipfCases();
  ZipfResult Zipf =
      zipfPhase(Opts, ZipfCases, Opts.ZipfRequests, false, "zipf");
  double Speedup = Zipf.Rps / CommittedBaselineRps;
  bool ZipfBitIdentical = Zipf.BitDivergences == 0;
  bool ZipfHealthy = Zipf.Failures == 0 && Zipf.Ok > 0 && Zipf.Hits > 0;
  bool ZipfFastEnough = Speedup >= 100.0;

  // Phase 3b: the same Zipfian serving discipline over REAL modules — the
  // C frontend's lowering of examples/corpus_c/ — alternating v1/v2 wire
  // codecs per request. Gates: every response bit-identical, no failures,
  // and the cache must actually hit (the Zipf head is hot).
  ZipfResult Real;
  bool RealBitIdentical = true, RealHealthy = true;
  if (Opts.RealCorpusRequests > 0) {
    std::vector<SoakCase> RealCases =
        buildRealCorpusCases(Opts.RealCorpusDir);
    Real = zipfPhase(Opts, RealCases, Opts.RealCorpusRequests, true,
                     "real-corpus");
    RealBitIdentical = Real.BitDivergences == 0;
    RealHealthy = Real.Failures == 0 && Real.Ok > 0 && Real.Hits > 0;
  }

  std::cout << "== perf_service: " << Opts.Requests << " requests, "
            << Opts.Clients << " clients ==\n"
            << "ok:          " << Tally.Ok.load() << '\n'
            << "shed:        " << Tally.Shed.load() << '\n'
            << "deadline:    " << Tally.Deadline.load() << '\n'
            << "malformed:   " << Tally.Malformed.load() << '\n'
            << "failures:    " << Tally.Failures.load() << '\n'
            << "throughput:  " << Throughput << " req/s\n"
            << "latency p50: " << P50 << " ms, p95: " << P95 << " ms, p99: "
            << P99 << " ms\n"
            << "bit-identical responses: " << (BitIdentical ? "yes" : "NO")
            << '\n'
            << "peak queue depth: " << Stats.count(telemetry::ServePeakQueue)
            << '\n'
            << "serve.batch: " << ServeBatchMs << " ms over allocate_total "
            << AllocateTotalMs << " ms (ratio " << BatchRatio
            << ", gate <= 1.5: " << (BatchLean ? "pass" : "FAIL") << ")\n";

  std::cout << "== zipf phase: " << Opts.ZipfRequests << " requests, "
            << Opts.Clients << " clients, "
            << (Opts.CacheBytes >> 20) << " MiB cache ==\n"
            << "ok:          " << Zipf.Ok << '\n'
            << "failures:    " << Zipf.Failures << '\n'
            << "throughput:  " << Zipf.Rps << " req/s ("
            << Speedup << "x the committed " << CommittedBaselineRps
            << " req/s baseline)\n"
            << "hit rate:    " << Zipf.HitRate << " (" << Zipf.Hits
            << " hits, " << Zipf.Misses << " misses)\n"
            << "latency p50: " << Zipf.P50 << " ms, p95: " << Zipf.P95
            << " ms, p99: " << Zipf.P99 << " ms\n"
            << "bit-identical responses: "
            << (ZipfBitIdentical ? "yes" : "NO") << '\n'
            << "gate (>=100x): " << (ZipfFastEnough ? "pass" : "FAIL")
            << '\n';

  if (Opts.RealCorpusRequests > 0)
    std::cout << "== real-corpus phase: " << Opts.RealCorpusRequests
              << " requests over " << Opts.RealCorpusDir
              << " (v1/v2 alternating) ==\n"
              << "ok:          " << Real.Ok << '\n'
              << "failures:    " << Real.Failures << '\n'
              << "throughput:  " << Real.Rps << " req/s\n"
              << "hit rate:    " << Real.HitRate << " (" << Real.Hits
              << " hits, " << Real.Misses << " misses)\n"
              << "latency p50: " << Real.P50 << " ms, p95: " << Real.P95
              << " ms, p99: " << Real.P99 << " ms\n"
              << "bit-identical responses: "
              << (RealBitIdentical ? "yes" : "NO") << '\n'
              << "gate (bit-identity, nonzero hit rate): "
              << (RealBitIdentical && RealHealthy ? "pass" : "FAIL")
              << '\n';

  // Phase 4: the connection-scaling gate.
  C10kResult C10k;
  bool C10kOk = true, C10kDrainClean = true;
  if (Opts.C10kConnections > 0) {
    C10k = c10kPhase(Opts, Cases);
    C10kOk = C10k.Ok;
    C10kDrainClean = C10k.DrainClean;
    std::cout << "== c10k phase: " << C10k.Target
              << " idle connections ==\n"
              << "opened:      " << C10k.Opened << '\n'
              << "peak open:   " << C10k.PeakConnections
              << " (server saw " << C10k.OpenAtPeak
              << " open at sample time)\n"
              << "verified ok: " << C10k.VerifiedOk
              << " allocations through the crowd\n"
              << "drain:       " << C10k.DrainSeconds << " s, "
              << (C10k.DrainClean ? "clean" : "NOT CLEAN") << '\n'
              << "gate: " << (C10kOk && C10kDrainClean ? "pass" : "FAIL")
              << '\n';
  }

  std::ofstream Json("BENCH_service.json");
  Json << "{\n"
       << "  \"requests\": " << Opts.Requests << ",\n"
       << "  \"clients\": " << Opts.Clients << ",\n"
       << "  \"ok\": " << Tally.Ok.load() << ",\n"
       << "  \"shed\": " << Tally.Shed.load() << ",\n"
       << "  \"deadline_missed\": " << Tally.Deadline.load() << ",\n"
       << "  \"malformed_sent\": " << Tally.Malformed.load() << ",\n"
       << "  \"failures\": " << Tally.Failures.load() << ",\n"
       << "  \"seconds\": " << Seconds << ",\n"
       << "  \"throughput_rps\": " << Throughput << ",\n"
       << "  \"latency_p50_ms\": " << P50 << ",\n"
       << "  \"latency_p95_ms\": " << P95 << ",\n"
       << "  \"latency_p99_ms\": " << P99 << ",\n"
       << "  \"bit_identical\": "
       << (BitIdentical && ZipfBitIdentical ? "true" : "false") << ",\n"
       << "  \"drain_clean\": " << (DrainClean ? "true" : "false") << ",\n"
       << "  \"cache_bytes\": " << Opts.CacheBytes << ",\n"
       << "  \"zipf_requests\": " << Opts.ZipfRequests << ",\n"
       << "  \"zipf_ok\": " << Zipf.Ok << ",\n"
       << "  \"zipf_seconds\": " << Zipf.Seconds << ",\n"
       << "  \"hit_rate\": " << Zipf.HitRate << ",\n"
       << "  \"rps_before\": " << Throughput << ",\n"
       << "  \"rps_after\": " << Zipf.Rps << ",\n"
       << "  \"speedup_vs_committed\": " << Speedup << ",\n"
       << "  \"zipf_latency_p50_ms\": " << Zipf.P50 << ",\n"
       << "  \"zipf_latency_p95_ms\": " << Zipf.P95 << ",\n"
       << "  \"zipf_latency_p99_ms\": " << Zipf.P99 << ",\n"
       << "  \"serve_batch_ms\": " << ServeBatchMs << ",\n"
       << "  \"allocate_total_ms\": " << AllocateTotalMs << ",\n"
       << "  \"batch_overhead_ratio\": " << BatchRatio << ",\n"
       << "  \"real_corpus_requests\": " << Opts.RealCorpusRequests
       << ",\n"
       << "  \"real_corpus_ok\": " << Real.Ok << ",\n"
       << "  \"real_corpus_rps\": " << Real.Rps << ",\n"
       << "  \"real_corpus_hit_rate\": " << Real.HitRate << ",\n"
       << "  \"real_corpus_latency_p50_ms\": " << Real.P50 << ",\n"
       << "  \"real_corpus_latency_p99_ms\": " << Real.P99 << ",\n"
       << "  \"real_corpus_bit_identical\": "
       << (Opts.RealCorpusRequests > 0 && RealBitIdentical && RealHealthy
               ? "true"
               : "false")
       << ",\n"
       << "  \"c10k_connections\": " << C10k.Opened << ",\n"
       << "  \"c10k_peak_connections\": " << C10k.PeakConnections << ",\n"
       << "  \"c10k_drain_seconds\": " << C10k.DrainSeconds << ",\n"
       << "  \"c10k_drain_clean\": "
       << (Opts.C10kConnections > 0 && C10k.DrainClean ? "true" : "false")
       << ",\n"
       << "  \"server\": ";
  Stats.writeJson(Json);
  Json << "\n}\n";

  return (BitIdentical && DrainClean && Healthy && BatchLean &&
          ZipfBitIdentical && ZipfHealthy && ZipfFastEnough &&
          RealBitIdentical && RealHealthy && C10kOk && C10kDrainClean)
             ? 0
             : 1;
}
