//===- benchmark/main.cpp - ccra_bench: one workload, end to end ----------===//
//
//   ccra_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//              --serve=PATH --root=DIR --out=DIR [--smoke]
//
// Runs one workload against the unmodified ccra_serve daemon (or, for
// paper_grid, the in-process experiment grid), checks every output against
// an in-process allocation, and prints one "workload metric value unit"
// line per metric followed by a one-line JSON result. --trace=0 reports the
// end-to-end metrics; --trace=1 runs the same load and then replays the
// workload in process with a span around every layer call, and reports the
// per-layer metrics. benchmark/README.md documents the workloads and every
// metric.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Rng.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>

using namespace ccra;
using namespace bench;

namespace {

// Workload sizes (divided by SmokeDivisor under --smoke).
constexpr unsigned FuzzModules = 128;
constexpr unsigned FuzzSizeScale = 8;
/// Zipf draws that fill the response cache before the clock starts (and
/// before the traced replay); the replay then covers the next
/// ZipfReplayOps draws.
constexpr std::size_t ZipfWarmOps = 20000;
constexpr std::size_t ZipfReplayOps = 20000;
constexpr double ZipfSkew = 1.1;
constexpr double ZipfClosedShare = 0.6; ///< of --seconds; the rest is open
constexpr double ZipfOpenRate = 8000;   ///< requests per second
constexpr unsigned SmokeDivisor = 50;
/// Set-up repetitions (3 under --smoke); setup_s is the median.
constexpr unsigned SetupReps = 15;
/// trace.root_self_ratio above this fails the traced run.
constexpr double MaxRootSelfRatio = 0.02;

struct Metric {
  const char *Name;
  const char *Unit;
};

const Metric EndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "ops/s"},
    {"lat_p50_ms", "ms"},     {"lat_p90_ms", "ms"},
    {"cpu_ms_per_op", "ms"},  {"peak_rss_mb", "MiB"},
    {"overhead_ops", "ops"},
};

const Metric PerLayer[] = {
    {"service.wire.decode_us", "us"},
    {"service.wire.encode_us", "us"},
    {"service.wire.request_kb", "KiB"},
    {"service.wire.response_kb", "KiB"},
    {"service.cache.key_us", "us"},
    {"service.cache.lookup_us", "us"},
    {"service.cache.insert_us", "us"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.evictions", "count"},
    {"ir.parse_us", "us"},
    {"ir.verify_us", "us"},
    {"ir.render_us", "us"},
    {"analysis.freq_us", "us"},
    {"analysis.liveness_us", "us"},
    {"analysis.cache_hit_ratio", "ratio"},
    {"harness.item_overhead_us", "us"},
    {"harness.jobs_speedup", "ratio"},
    {"harness.pool_max_slot_share", "ratio"},
    {"regalloc.allocate_us", "us"},
    {"regalloc.coalesce_self_us", "us"},
    {"regalloc.build_ranges_us", "us"},
    {"regalloc.build_graph_us", "us"},
    {"regalloc.reconstruct_us", "us"},
    {"regalloc.color_self_us", "us"},
    {"regalloc.simplify_us", "us"},
    {"regalloc.spill_insert_us", "us"},
    {"regalloc.materialize_us", "us"},
    {"regalloc.verify_us", "us"},
    {"regalloc.unattributed_us", "us"},
    {"regalloc.rounds_per_fn", "ratio"},
    {"regalloc.liveness_computes_per_fn", "ratio"},
    {"service.server.release_us", "us"},
    {"service.server.wait_io_us", "us"},
    {"service.server.cpu_unattributed_ms_per_op", "ms"},
    {"service.server.mean_batch_size", "count"},
    {"service.server.peak_queue_depth", "count"},
    {"service.server.batch_ms_per_op", "ms"},
    {"frontend.compile_us", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.root_self_ratio", "ratio"},
    {"client.late_p90_us", "us"},
};

/// Span name -> per-layer metric it feeds (self time, mean per op).
const std::pair<const char *, const char *> SpanMetrics[] = {
    {"service.wire.decode", "service.wire.decode_us"},
    {"service.wire.encode", "service.wire.encode_us"},
    {"service.cache.key", "service.cache.key_us"},
    {"service.cache.lookup", "service.cache.lookup_us"},
    {"service.cache.insert", "service.cache.insert_us"},
    {"ir.parse", "ir.parse_us"},
    {"ir.verify", "ir.verify_us"},
    {"ir.render", "ir.render_us"},
    {"service.server.release", "service.server.release_us"},
    {"analysis.freq", "analysis.freq_us"},
    {"analysis.liveness", "analysis.liveness_us"},
    {"harness.batch", "harness.item_overhead_us"},
    {"harness.experiment", "harness.item_overhead_us"},
    {"regalloc.allocate", "regalloc.unattributed_us"},
    {"regalloc.coalesce", "regalloc.coalesce_self_us"},
    {"regalloc.build_ranges", "regalloc.build_ranges_us"},
    {"regalloc.build_graph", "regalloc.build_graph_us"},
    {"regalloc.reconstruct", "regalloc.reconstruct_us"},
    {"regalloc.color", "regalloc.color_self_us"},
    {"regalloc.simplify", "regalloc.simplify_us"},
    {"regalloc.spill_insert", "regalloc.spill_insert_us"},
    {"regalloc.materialize", "regalloc.materialize_us"},
    {"regalloc.verify", "regalloc.verify_us"},
};

struct Options {
  unsigned setupReps() const { return Smoke ? 3 : SetupReps; }

  std::string Workload;
  std::uint64_t Seed = 1;
  /// Required; run.sh passes BENCHMARK.json's run_seconds.
  double Seconds = 0;
  bool Trace = false;
  bool Smoke = false;
  std::string Serve;
  std::string Root = ".";
  std::string Out = "build-bench/out";
};

/// One run's results and verdict.
struct Report {
  std::map<std::string, double> Values;
  std::vector<std::pair<std::string, double>> Diagnostics;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Problems;

  void problem(const std::string &P) {
    std::cerr << "ccra_bench: " << P << '\n';
    Problems.push_back(P);
  }
  void diag(const std::string &Name, double V) {
    Diagnostics.push_back({Name, V});
  }
};

unsigned availableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return 1;
}

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

/// Linear-interpolated percentile of \p Values (sorted in place), P in
/// [0, 1]; 0 for an empty vector.
double percentile(std::vector<double> &Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = P * static_cast<double>(Values.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Rank - double(Lo));
}

double median(std::vector<double> Values) { return percentile(Values, 0.5); }

double mean(const std::vector<double> &V) {
  return V.empty() ? 0.0
                   : std::accumulate(V.begin(), V.end(), 0.0) /
                         static_cast<double>(V.size());
}

std::vector<std::uint32_t> permutation(std::size_t N, Rng &R) {
  std::vector<std::uint32_t> P(N);
  std::iota(P.begin(), P.end(), 0u);
  for (std::size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.nextBelow(I)]);
  return P;
}

std::vector<std::uint32_t> iota(std::size_t N) {
  std::vector<std::uint32_t> V(N);
  std::iota(V.begin(), V.end(), 0u);
  return V;
}

/// Checks every OK response against the in-process reference.
void verifySeen(const std::vector<Observation> &Seen,
                const std::vector<Expected> &Ref, Report &Rep) {
  std::uint64_t Diverged = 0;
  for (const Observation &O : Seen)
    if (O.IrHash != Ref[O.Request].IrHash ||
        !(O.Totals == Ref[O.Request].Totals))
      ++Diverged;
  if (Diverged) {
    Rep.Failed += Diverged;
    Rep.problem(std::to_string(Diverged) +
                " responses differ from in-process allocation");
  }
}

double overheadOps(const std::vector<Expected> &Ref) {
  double Sum = 0;
  for (const Expected &E : Ref)
    Sum += E.Totals.total();
  return Sum;
}

/// The corpus programs, built \p Reps times; \p PrepSeconds and
/// \p CompileSeconds receive the medians.
std::vector<Program> buildCorpus(const Options &Opt, unsigned Reps,
                                 double &PrepSeconds, double &CompileSeconds,
                                 std::size_t &NumSources) {
  std::vector<CSource> Sources = readCorpusSources(Opt.Root);
  NumSources = Sources.size();
  std::vector<double> Prep, Compile;
  std::vector<Program> Programs;
  for (unsigned I = 0; I < Reps; ++I) {
    double C = 0;
    auto Start = Clock::now();
    Programs = corpusPrograms(Sources, C);
    Prep.push_back(secondsSince(Start));
    Compile.push_back(C);
  }
  PrepSeconds = median(Prep);
  CompileSeconds = median(Compile);
  return Programs;
}

// --- Served workloads -----------------------------------------------------

/// Everything the untraced load of one served workload measured.
struct Served {
  std::vector<double> StartSeconds; ///< spawn-to-HELLO, every daemon
  std::vector<double> ClosedMs, OpenMs, LatenessUs;
  double ClosedSeconds = 0;
  std::uint64_t ClosedOk = 0, OpenOk = 0;
  double CpuSeconds = 0, MaxRssMb = 0;
  double Batches = 0, Batched = 0, BatchMs = 0, PeakQueue = 0;
  double Evictions = 0, Hits = 0, Lookups = 0;
  std::vector<Observation> Seen;
};

class DaemonRunner {
public:
  DaemonRunner(const Options &Opt, Report &Rep, Served &S)
      : Opt(Opt), Rep(Rep), S(S) {}

  /// Starts a daemon and records its spawn-to-HELLO time.
  bool start(Daemon &D) {
    std::string Err;
    std::string Socket = Opt.Out + "/ccra-" + std::to_string(::getpid()) +
                         "-" + std::to_string(Count++) + ".sock";
    if (!D.start(Opt.Serve, Socket, Opt.Out + "/daemon.log", Err)) {
      Rep.problem(Err);
      return false;
    }
    S.StartSeconds.push_back(D.startSeconds());
    return true;
  }

  /// Reads STATS, drains the daemon and accounts its resources.
  bool stop(Daemon &D, bool Account) {
    std::string Err;
    TelemetrySnapshot Stats;
    bool HaveStats = D.stats(Stats, Err);
    DaemonExit Exit;
    bool Clean = D.stop(Exit, Err);
    if (!HaveStats || !Clean) {
      Rep.problem(Err);
      return false;
    }
    if (!Account)
      return true;
    S.CpuSeconds += Exit.CpuSeconds;
    S.MaxRssMb = std::max(S.MaxRssMb, Exit.MaxRssMb);
    S.Batches += Stats.count(telemetry::ServeBatches);
    S.Batched += Stats.count(telemetry::ServeBatchedRequests);
    S.BatchMs += Stats.timeMs(telemetry::ServeBatchPhase);
    S.PeakQueue = std::max(S.PeakQueue, Stats.count(telemetry::ServePeakQueue));
    S.Evictions += Stats.count(telemetry::CacheEvictions);
    S.Hits += Stats.count(telemetry::CacheHits);
    S.Lookups += Stats.count(telemetry::CacheHits) +
                 Stats.count(telemetry::CacheMisses);
    return true;
  }

  /// Extra start/stop cycles so setup_s is a median of \p Reps starts.
  void setupStarts(unsigned Reps) {
    while (S.StartSeconds.size() < Reps) {
      Daemon D;
      if (!start(D) || !stop(D, false))
        return;
    }
  }

  /// Folds one load phase into the run.
  void absorb(LoadResult &L, std::vector<double> &Latencies,
              std::uint64_t &Ok) {
    Rep.Attempted += L.Attempted;
    Rep.Failed += L.Failed;
    for (const std::string &E : L.Errors)
      Rep.problem(E);
    Ok += L.Attempted - L.Failed;
    Latencies.insert(Latencies.end(), L.LatencyMs.begin(), L.LatencyMs.end());
    S.Seen.insert(S.Seen.end(), L.Seen.begin(), L.Seen.end());
  }

private:
  const Options &Opt;
  Report &Rep;
  Served &S;
  unsigned Count = 0;
};

void servedMetrics(const Served &S, double SetupPrep, double OverheadOps,
                   Report &Rep) {
  std::vector<double> Closed = S.ClosedMs;
  std::uint64_t Ok = S.ClosedOk + S.OpenOk;
  Rep.Values["setup_s"] = median(S.StartSeconds) + SetupPrep;
  Rep.Values["ops_per_s"] =
      S.ClosedSeconds > 0 ? S.ClosedOk / S.ClosedSeconds : 0.0;
  Rep.Values["lat_p50_ms"] = percentile(Closed, 0.50);
  Rep.Values["lat_p90_ms"] = percentile(Closed, 0.90);
  Rep.Values["cpu_ms_per_op"] = Ok ? S.CpuSeconds * 1000.0 / Ok : 0.0;
  Rep.Values["peak_rss_mb"] = S.MaxRssMb;
  Rep.Values["overhead_ops"] = OverheadOps;

  Rep.diag("lat_p99_ms", percentile(Closed, 0.99));
  Rep.diag("lat_samples", static_cast<double>(Closed.size()));
  if (!S.OpenMs.empty()) {
    std::vector<double> Open = S.OpenMs;
    Rep.diag("open_p50_ms", percentile(Open, 0.50));
    Rep.diag("open_p90_ms", percentile(Open, 0.90));
    Rep.diag("open_p99_ms", percentile(Open, 0.99));
    Rep.diag("open_samples", static_cast<double>(Open.size()));
  }
  Rep.diag("daemon_starts", static_cast<double>(S.StartSeconds.size()));
  Rep.diag("daemon_cache_hit_ratio", S.Lookups ? S.Hits / S.Lookups : 0.0);
}

/// Runs \p Replay(Tracer, Check) three times: checking every output against
/// the reference (which also pays the first run's page faults), then traced,
/// then untraced. Reports the metrics every replay yields: self time per op
/// of each layer, the engine's counts, the reconciliation and
/// tracing-overhead ratios. Writes the trace file. Returns the traced
/// result; \p UntracedSeconds gets the untraced replay's wall time.
template <typename ReplayFn>
ReplayResult tracedReplay(const Options &Opt, ReplayFn Replay,
                          double &UntracedSeconds, Report &Rep) {
  Tracer Off(false), On(true);
  ReplayResult C = Replay(Off, true);
  ReplayResult T = Replay(On, false);
  ReplayResult U = Replay(Off, false);
  UntracedSeconds = U.WallSeconds;
  if (C.Mismatches + T.Mismatches + U.Mismatches)
    Rep.problem("replayed responses differ from the reference");

  double Ops = static_cast<double>(T.Ops);
  std::map<std::string, double> Self = selfTimesUs(On.Spans);
  for (const auto &[Span, Name] : SpanMetrics)
    Rep.Values[Name] += Self[Span] / Ops;
  double AllocateUs = 0;
  for (const Span &Sp : On.Spans)
    if (std::string_view(Sp.Name) == "regalloc.allocate")
      AllocateUs += Sp.EndUs - Sp.StartUs;
  Rep.Values["regalloc.allocate_us"] = AllocateUs / Ops;
  Rep.Values["regalloc.rounds_per_fn"] =
      T.Functions ? T.Rounds / T.Functions : 0.0;
  Rep.Values["regalloc.liveness_computes_per_fn"] =
      T.Functions ? T.LivenessComputes / T.Functions : 0.0;

  const Span &Root = On.Spans.front();
  Rep.Values["trace.overhead_ratio"] = T.WallSeconds / UntracedSeconds;
  Rep.Values["trace.root_self_ratio"] =
      Self["replay"] / (Root.EndUs - Root.StartUs);
  Rep.diag("replay_ops", Ops);
  if (!writeTrace(Opt.Out + "/trace-" + Opt.Workload + ".json", Opt.Workload,
                  On.Spans))
    Rep.problem("cannot write trace file");
  return T;
}

/// The traced half of a served workload: replays of \p Order after its
/// first \p Warm entries, then the per-layer metrics.
void servedLayers(const Options &Opt, const Served &S, const Population &Pop,
                  const std::vector<std::uint32_t> &Order, std::size_t Warm,
                  bool Binary, const std::vector<Expected> &Ref, Report &Rep) {
  double UntracedSeconds = 0;
  ReplayResult R = tracedReplay(
      Opt,
      [&](Tracer &T, bool Check) {
        return replayServed(Pop, Order, Warm, Binary, Ref, Check, T);
      },
      UntracedSeconds, Rep);

  Rep.Values["service.wire.request_kb"] = R.RequestBytes / R.Ops / 1024.0;
  Rep.Values["service.wire.response_kb"] = R.ResponseBytes / R.Ops / 1024.0;
  Rep.Values["service.cache.hit_ratio"] =
      static_cast<double>(R.Hits) / static_cast<double>(R.Ops);
  Rep.Values["service.cache.evictions"] = S.Evictions;

  double ServiceUs = UntracedSeconds * 1e6 / static_cast<double>(R.Ops);
  Rep.Values["service.server.wait_io_us"] = mean(S.ClosedMs) * 1000.0 -
                                            ServiceUs;
  std::uint64_t Ok = S.ClosedOk + S.OpenOk;
  Rep.Values["service.server.cpu_unattributed_ms_per_op"] =
      (Ok ? S.CpuSeconds * 1000.0 / Ok : 0.0) - ServiceUs / 1000.0;
  Rep.Values["service.server.mean_batch_size"] =
      S.Batches ? S.Batched / S.Batches : 0.0;
  Rep.Values["service.server.peak_queue_depth"] = S.PeakQueue;
  Rep.Values["service.server.batch_ms_per_op"] =
      S.Batched ? S.BatchMs / S.Batched : 0.0;
  std::vector<double> Late = S.LatenessUs;
  Rep.Values["client.late_p90_us"] = percentile(Late, 0.90);
  Rep.diag("replay_service_us", ServiceUs);
}

/// Population P over text wire, with its sources' set-up timed.
struct CorpusInputs {
  Population Pop;
  double PrepSeconds = 0;
  double CompileSeconds = 0;
  std::size_t NumSources = 0;
};

bool corpusInputs(const Options &Opt, CorpusInputs &In, Report &Rep) {
  In.Pop.Programs = buildCorpus(Opt, Opt.setupReps(), In.PrepSeconds,
                                In.CompileSeconds, In.NumSources);
  if (In.Pop.Programs.empty() || In.NumSources == 0) {
    Rep.problem("cannot compile examples/corpus_c under " + Opt.Root);
    return false;
  }
  In.Pop.Requests = corpusRequests(In.Pop.Programs.size(),
                                   Opt.Smoke ? SmokeDivisor : 1);
  Rep.Values["frontend.compile_us"] =
      In.CompileSeconds * 1e6 / static_cast<double>(In.NumSources);
  return true;
}

void corpusCold(const Options &Opt, unsigned Clients, unsigned Threads,
                Report &Rep) {
  CorpusInputs In;
  if (!corpusInputs(Opt, In, Rep))
    return;
  const Population &Pop = In.Pop;
  Served S;
  DaemonRunner Runner(Opt, Rep, S);

  // Passes until --seconds of load: each a fresh daemon and a fresh seeded
  // permutation of P, so every request is the daemon's first sight of it.
  Rng R(Opt.Seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::uint32_t> FirstPass;
  unsigned Passes = 0;
  while (S.ClosedSeconds < Opt.Seconds && Rep.Problems.empty()) {
    std::vector<std::uint32_t> Order = permutation(Pop.Requests.size(), R);
    if (FirstPass.empty())
      FirstPass = Order;
    Daemon D;
    if (!Runner.start(D))
      return;
    LoadResult L = closedLoop(D.socketPath(), Pop, Sequence::of(Order), 0,
                              Opt.Seconds - S.ClosedSeconds, Clients, false);
    S.ClosedSeconds += L.Seconds;
    Runner.absorb(L, S.ClosedMs, S.ClosedOk);
    if (!Runner.stop(D, true))
      return;
    ++Passes;
  }
  Runner.setupStarts(Opt.setupReps());
  Rep.diag("passes", Passes);

  std::vector<Expected> Ref =
      allocateAll(Pop, iota(Pop.Requests.size()), Threads);
  verifySeen(S.Seen, Ref, Rep);
  servedMetrics(S, In.PrepSeconds, overheadOps(Ref), Rep);
  if (Opt.Trace)
    servedLayers(Opt, S, Pop, FirstPass, 0, false, Ref, Rep);
}

void corpusZipf(const Options &Opt, unsigned Clients, unsigned Threads,
                Report &Rep) {
  CorpusInputs In;
  if (!corpusInputs(Opt, In, Rep))
    return;
  const Population &Pop = In.Pop;

  // Zipf(1.1) over a fixed rank order of P, drawn from the seed: one global
  // sequence, consumed in order by the closed loop and then the open loop.
  // Each position has its own generator, so draws are made on demand and
  // the sequence never runs out. The rank order is not seeded: a hit's cost
  // follows its response size, so reshuffling which requests are hot moved
  // throughput between seeds by more than its bound.
  Rng Fixed(0x2196f00d);
  std::vector<std::uint32_t> Rank = permutation(Pop.Requests.size(), Fixed);
  std::uint64_t Stream = Opt.Seed * 0x9e3779b97f4a7c15ull + 2;
  std::vector<double> Cdf(Rank.size());
  double Sum = 0;
  for (std::size_t I = 0; I < Cdf.size(); ++I)
    Cdf[I] = Sum += 1.0 / std::pow(static_cast<double>(I + 1), ZipfSkew);
  Sequence Zipf{[&](std::size_t Pos) {
    Rng R(Stream + Pos * 0x9e3779b97f4a7c15ull);
    double U = R.nextDouble() * Sum;
    std::size_t K = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    return Rank[std::min(K, Rank.size() - 1)];
  }};
  std::size_t Warm = Opt.Smoke ? ZipfWarmOps / SmokeDivisor : ZipfWarmOps;

  Served S;
  DaemonRunner Runner(Opt, Rep, S);
  Daemon D;
  if (!Runner.start(D))
    return;
  LoadResult Warmup = closedLoop(D.socketPath(), Pop, {Zipf.At, Warm}, 0,
                                 1e9, Clients, false);
  std::vector<double> WarmMs;
  std::uint64_t WarmOk = 0;
  Runner.absorb(Warmup, WarmMs, WarmOk);
  D.excludeCpuSoFar();
  LoadResult Closed = closedLoop(D.socketPath(), Pop, Zipf, Warm,
                                 Opt.Seconds * ZipfClosedShare, Clients,
                                 false);
  S.ClosedSeconds = Closed.Seconds;
  std::size_t Next = Warm + Closed.Consumed;
  Runner.absorb(Closed, S.ClosedMs, S.ClosedOk);
  LoadResult Open = openLoop(D.socketPath(), Pop, Zipf, Next,
                             Opt.Seconds * (1 - ZipfClosedShare),
                             ZipfOpenRate, Clients);
  S.LatenessUs = Open.LatenessUs;
  Runner.absorb(Open, S.OpenMs, S.OpenOk);
  if (!Runner.stop(D, true))
    return;
  Runner.setupStarts(Opt.setupReps());
  Rep.diag("warmup_seconds", Warmup.Seconds);

  std::vector<Expected> Ref =
      allocateAll(Pop, iota(Pop.Requests.size()), Threads);
  verifySeen(S.Seen, Ref, Rep);
  servedMetrics(S, In.PrepSeconds, overheadOps(Ref), Rep);
  if (Opt.Trace) {
    std::size_t Ops = Opt.Smoke ? ZipfReplayOps / SmokeDivisor
                                : ZipfReplayOps;
    std::vector<std::uint32_t> Replay(Warm + Ops);
    for (std::size_t Pos = 0; Pos < Replay.size(); ++Pos)
      Replay[Pos] = Zipf.At(Pos);
    servedLayers(Opt, S, Pop, Replay, Warm, false, Ref, Rep);
  }
}

void fuzzLarge(const Options &Opt, unsigned Clients, unsigned Threads,
               Report &Rep) {
  unsigned Count = Opt.Smoke ? 4 : FuzzModules;
  Population Pop = fuzzPopulation(Count, FuzzSizeScale);
  // One seeded order, repeated: the modules' responses overflow the 64 MiB
  // response cache, so under LRU every request is an evicted miss.
  Rng R(Opt.Seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<std::uint32_t> Order = permutation(Count, R);
  Sequence Cycles{[&](std::size_t Pos) { return Order[Pos % Count]; }};

  Served S;
  DaemonRunner Runner(Opt, Rep, S);
  Daemon D;
  if (!Runner.start(D))
    return;
  LoadResult L = closedLoop(D.socketPath(), Pop, Cycles, 0, Opt.Seconds,
                            Clients, /*PreferBinary=*/true);
  S.ClosedSeconds = L.Seconds;
  Runner.absorb(L, S.ClosedMs, S.ClosedOk);
  if (!Runner.stop(D, true))
    return;
  Runner.setupStarts(Opt.setupReps());

  std::vector<Expected> Ref = allocateAll(Pop, iota(Count), Threads);
  verifySeen(S.Seen, Ref, Rep);
  servedMetrics(S, 0.0, overheadOps(Ref), Rep);
  Rep.diag("cycles", static_cast<double>(L.Consumed) / Count);
  Rep.diag("daemon_cache_evictions", S.Evictions);
  if (Opt.Trace)
    servedLayers(Opt, S, Pop, Order, 0, true, Ref, Rep);
}

// --- The paper grid -------------------------------------------------------

void paperGrid(const Options &Opt, unsigned Clients, Report &Rep) {
  CorpusInputs In;
  if (!corpusInputs(Opt, In, Rep))
    return;
  const Population &Pop = In.Pop;
  Rng R(Opt.Seed * 0x9e3779b97f4a7c15ull + 4);
  std::vector<ExperimentSpec> Specs;
  for (std::uint32_t I : permutation(Pop.Requests.size(), R)) {
    const Request &Req = Pop.Requests[I];
    Specs.push_back({Pop.Programs[Req.Program].M.get(), Req.Config,
                     Req.Options, Req.Mode, /*Jobs=*/1});
  }

  std::vector<ExperimentRun> Serial = runExperiments(Specs, 1);
  std::vector<double> WallMs;
  double Cpu = 0, Timed = 0;
  TelemetrySnapshot Grid;
  std::uint64_t Diverged = 0;
  while (Timed < Opt.Seconds) {
    double Cpu0 = processCpuSeconds();
    auto Start = Clock::now();
    std::vector<ExperimentRun> Runs = runExperiments(Specs, Clients, &Grid);
    double Wall = secondsSince(Start);
    Cpu += processCpuSeconds() - Cpu0;
    Timed += Wall;
    WallMs.push_back(Wall * 1000.0);
    Rep.Attempted += Runs.size();
    for (std::size_t I = 0; I < Runs.size(); ++I)
      Diverged += !sameResult(Runs[I].Result, Serial[I].Result);
  }
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  if (Diverged) {
    Rep.Failed += Diverged;
    Rep.problem(std::to_string(Diverged) +
                " grid points differ from the Jobs=1 run");
  }

  double Points = static_cast<double>(Rep.Attempted);
  double Overhead = 0;
  for (const ExperimentRun &Run : Serial)
    Overhead += Run.Result.Costs.total();
  std::vector<double> Walls = WallMs;
  Rep.Values["setup_s"] = In.PrepSeconds;
  Rep.Values["ops_per_s"] = Points / Timed;
  Rep.Values["lat_p50_ms"] = percentile(Walls, 0.50);
  Rep.Values["lat_p90_ms"] = percentile(Walls, 0.90);
  Rep.Values["cpu_ms_per_op"] = Cpu * 1000.0 / Points;
  Rep.Values["peak_rss_mb"] = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  Rep.Values["overhead_ops"] = Overhead;
  Rep.diag("repetitions", static_cast<double>(WallMs.size()));
  Rep.diag("points", static_cast<double>(Specs.size()));

  if (!Opt.Trace)
    return;
  double UntracedSeconds = 0;
  tracedReplay(
      Opt, [&](Tracer &T, bool) { return replayGrid(Specs, Serial, T); },
      UntracedSeconds, Rep);
  double Hits = Grid.count(telemetry::SchedAnalysisCacheHits);
  double Misses = Grid.count(telemetry::SchedAnalysisCacheMisses);
  Rep.Values["analysis.cache_hit_ratio"] =
      Hits + Misses ? Hits / (Hits + Misses) : 0.0;
  Rep.Values["harness.jobs_speedup"] =
      UntracedSeconds * 1000.0 / median(WallMs);
  Rep.Values["harness.pool_max_slot_share"] =
      Grid.count(telemetry::SchedPoolMaxSlotShare);
}

// --- Output ---------------------------------------------------------------

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonMetrics(const Report &Rep, const Metric *Begin,
                        const Metric *End) {
  std::string Out = "{";
  for (const Metric *M = Begin; M != End; ++M) {
    auto It = Rep.Values.find(M->Name);
    double V = It == Rep.Values.end() ? 0.0 : It->second;
    if (M != Begin)
      Out += ", ";
    Out += "\"" + std::string(M->Name) + "\": {\"value\": " + number(V) +
           ", \"unit\": \"" + M->Unit + "\"}";
  }
  return Out + "}";
}

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Eq = Arg.find('=');
    std::string Key = Arg.substr(0, Eq);
    std::string Value = Eq == std::string::npos ? "" : Arg.substr(Eq + 1);
    if (Eq == std::string::npos && Key != "--smoke" && I + 1 < Argc)
      Value = Argv[++I];
    try {
      if (Key == "--workload")
        Opt.Workload = Value;
      else if (Key == "--seed")
        Opt.Seed = std::stoull(Value);
      else if (Key == "--seconds")
        Opt.Seconds = std::stod(Value);
      else if (Key == "--trace")
        Opt.Trace = Value == "1";
      else if (Key == "--smoke")
        Opt.Smoke = true;
      else if (Key == "--serve")
        Opt.Serve = Value;
      else if (Key == "--root")
        Opt.Root = Value;
      else if (Key == "--out")
        Opt.Out = Value;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return !Opt.Serve.empty() && Opt.Seconds > 0 &&
         (Opt.Workload == "corpus_cold" || Opt.Workload == "corpus_zipf" ||
          Opt.Workload == "fuzz_large" || Opt.Workload == "paper_grid");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    std::cerr << "usage: ccra_bench --workload=corpus_cold|corpus_zipf|"
                 "fuzz_large|paper_grid --serve=PATH\n"
                 "                  --seconds=S [--seed=N] [--trace=0|1] "
                 "[--root=DIR] [--out=DIR] [--smoke]\n";
    return 2;
  }
  if (Opt.Smoke)
    Opt.Seconds /= SmokeDivisor;
  ::mkdir(Opt.Out.c_str(), 0755);
  unsigned Cpus = availableCpus();
  unsigned Clients = std::min(4u, Cpus);

  Report Rep;
  if (Opt.Workload == "corpus_cold")
    corpusCold(Opt, Clients, Cpus, Rep);
  else if (Opt.Workload == "corpus_zipf")
    corpusZipf(Opt, Clients, Cpus, Rep);
  else if (Opt.Workload == "fuzz_large")
    fuzzLarge(Opt, Clients, Cpus, Rep);
  else
    paperGrid(Opt, Clients, Rep);

  if (Rep.Attempted == 0)
    Rep.problem("no operation was attempted");
  if (Opt.Trace && Rep.Values["trace.root_self_ratio"] > MaxRootSelfRatio)
    Rep.problem("layers do not add up: root self time is " +
                number(Rep.Values["trace.root_self_ratio"]) +
                " of replay wall (limit " + number(MaxRootSelfRatio) + ")");
  for (const auto &[Name, V] : Rep.Values)
    if (!std::isfinite(V))
      Rep.problem("metric " + Name + " is not finite");

  const Metric *Begin = Opt.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const Metric *End = Opt.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const Metric *M = Begin; M != End; ++M)
    std::cout << Opt.Workload << ' ' << M->Name << ' '
              << number(Rep.Values[M->Name]) << ' ' << M->Unit << '\n';
  Rep.diag("ops_attempted", static_cast<double>(Rep.Attempted));
  Rep.diag("ops_failed", static_cast<double>(Rep.Failed));
  for (const auto &[Name, V] : Rep.Diagnostics)
    std::cout << Opt.Workload << ' ' << Name << ' ' << number(V)
              << " (diagnostic)\n";

  bool Correct = Rep.Problems.empty();
  std::string Metrics = jsonMetrics(Rep, Begin, End);
  std::string Diagnostics = "{";
  for (std::size_t I = 0; I < Rep.Diagnostics.size(); ++I)
    Diagnostics += (I ? ", \"" : "\"") + Rep.Diagnostics[I].first +
                   "\": " + number(Rep.Diagnostics[I].second);
  Diagnostics += "}";

  std::ofstream(Opt.Out + "/results-" + Opt.Workload + "-seed" +
                std::to_string(Opt.Seed) + (Opt.Trace ? "-trace" : "") +
                ".json")
      << "{\"workload\": \"" << Opt.Workload << "\", \"seed\": " << Opt.Seed
      << ", \"seconds\": " << number(Opt.Seconds)
      << ", \"trace\": " << (Opt.Trace ? 1 : 0)
      << ", \"correct\": " << (Correct ? "true" : "false")
      << ", \"attempted\": " << Rep.Attempted
      << ", \"failed\": " << Rep.Failed << ", \"metrics\": " << Metrics
      << ", \"diagnostics\": " << Diagnostics << "}\n";

  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << Rep.Attempted
            << ", \"failed\": " << Rep.Failed << ", \"metrics\": " << Metrics
            << "}" << std::endl;
  return Correct ? 0 : 1;
}
