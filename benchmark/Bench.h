//===- benchmark/Bench.h - End-to-end benchmark internals -------*- C++ -*-===//
///
/// \file
/// Shared pieces of ccra_bench: the request populations, the in-process
/// reference allocation every served response is checked against, the
/// daemon supervisor, the load generators, and the in-process replays that
/// attribute time to layers. Every function here calls only the public
/// interfaces of src/; nothing in the program is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_BENCHMARK_BENCH_H
#define CCRA_BENCHMARK_BENCH_H

#include "analysis/Frequency.h"
#include "harness/Experiment.h"
#include "ir/Module.h"
#include "regalloc/AllocationResult.h"
#include "regalloc/AllocatorOptions.h"
#include "support/Telemetry.h"
#include "target/MachineDescription.h"

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

// --- Populations ----------------------------------------------------------

/// One input module in both wire forms.
struct Program {
  std::string Text;   ///< printModule output (v1 wire, reference parse)
  std::string Binary; ///< encodeModuleBinary output (v2 wire); may be empty
  /// The module itself, kept only where the grid needs it.
  std::unique_ptr<ccra::Module> M;
};

/// One distinct allocation request.
struct Request {
  std::uint32_t Program = 0;
  ccra::RegisterConfig Config;
  ccra::AllocatorOptions Options;
  ccra::FrequencyMode Mode = ccra::FrequencyMode::Profile;
};

struct Population {
  std::vector<Program> Programs;
  std::vector<Request> Requests;
};

/// A C source of examples/corpus_c, read once.
struct CSource {
  std::string Name;
  std::string Text;
};

/// The five allocator arms: improved, base, cbh, priority,
/// improved-optimistic.
const std::vector<ccra::AllocatorOptions> &allocatorArms();

/// Reads every examples/corpus_c/*.c under \p Root, sorted by name.
std::vector<CSource> readCorpusSources(const std::string &Root);

/// Compiles \p Sources with Frontend::compile and builds the 14 SPEC
/// proxies. \p CompileSeconds receives the frontend's share.
std::vector<Program> corpusPrograms(const std::vector<CSource> &Sources,
                                    double &CompileSeconds);

/// Population P: every program x standardConfigSweep() x allocatorArms() x
/// both frequency modes. \p Stride > 1 keeps every Stride-th request.
std::vector<Request> corpusRequests(std::size_t NumPrograms,
                                    unsigned Stride);

/// \p Count FuzzGen modules of 140-415 KB text at \p SizeScale, profiles
/// mixed / call-dense / high-degree / pathological-live in equal shares, one
/// request each with drawn options, register config and frequency mode. The
/// set is fixed: per-request cost spans 20x across modules, so a set drawn
/// from the run's seed would move the throughput between seeds by more
/// than its bound.
Population fuzzPopulation(unsigned Count, unsigned SizeScale);

// --- Reference allocation -------------------------------------------------

/// What a served response must reproduce exactly.
struct Expected {
  std::size_t IrHash = 0; ///< std::hash of the allocated module text
  ccra::CostBreakdown Totals;
};

std::size_t irHash(const std::string &AllocatedIr);

/// The in-process path: parseModule -> FrequencyInfo::compute ->
/// EngineBuilder...allocateModule -> printModule.
Expected allocateInProcess(const Program &P, const Request &R);

/// allocateInProcess for each request index in \p Which, on \p Threads
/// threads. The result is indexed like Population::Requests; entries not
/// in \p Which stay default.
std::vector<Expected> allocateAll(const Population &Pop,
                                  const std::vector<std::uint32_t> &Which,
                                  unsigned Threads);

// --- Daemon ---------------------------------------------------------------

struct DaemonExit {
  /// User + sys from wait4, less what the daemon had used by the time it
  /// answered HELLO or by the last Daemon::excludeCpuSoFar().
  double CpuSeconds = 0;
  double MaxRssMb = 0; ///< ru_maxrss, i.e. the daemon's VmHWM
};

/// One ccra_serve process on a Unix socket, every other flag at its default.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon and returns once a client has read its HELLO.
  bool start(const std::string &ServePath, const std::string &SocketPath,
             const std::string &LogPath, std::string &Err);
  /// Spawn-to-HELLO time of the last start().
  double startSeconds() const { return StartSeconds; }
  const std::string &socketPath() const { return SocketPath; }

  bool stats(ccra::TelemetrySnapshot &Out, std::string &Err) const;

  /// Leaves the CPU the daemon has used so far out of stop()'s CpuSeconds,
  /// so untimed work such as a cache warm-up is not charged to the timed
  /// operations.
  void excludeCpuSoFar();

  /// SIGTERM (graceful drain), then reaps the process. Fails unless the
  /// daemon exits 0.
  bool stop(DaemonExit &Out, std::string &Err);

private:
  pid_t Pid = -1;
  std::string SocketPath;
  double StartSeconds = 0;
  double CpuExcluded = 0;
};

// --- Load -----------------------------------------------------------------

/// One OK response, reduced to what the reference check needs.
struct Observation {
  std::uint32_t Request = 0;
  std::size_t IrHash = 0;
  ccra::CostBreakdown Totals;
};

/// The request index a load sends at each position. Positions are drawn on
/// demand, so an unbounded sequence never runs out however fast the daemon
/// answers.
struct Sequence {
  static constexpr std::size_t Unbounded = SIZE_MAX;

  /// The positions of \p V, which must outlive the sequence.
  static Sequence of(const std::vector<std::uint32_t> &V) {
    return {[&V](std::size_t Pos) { return V[Pos]; }, V.size()};
  }

  /// Called from every client thread at once.
  std::function<std::uint32_t(std::size_t)> At;
  std::size_t Length = Unbounded;
};

struct LoadResult {
  std::vector<double> LatencyMs;  ///< OK operations only
  std::vector<double> LatenessUs; ///< open loop: send time - due time
  std::vector<Observation> Seen;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::uint64_t Consumed = 0; ///< positions of the sequence issued
  double Seconds = 0;
  std::vector<std::string> Errors; ///< first few failure diagnostics
};

/// Closed loop: \p Clients threads, one connection each; each sends the
/// next unclaimed position of \p Seq (from \p First) once its previous
/// request is answered. Stops when the sequence is exhausted or \p Seconds
/// have elapsed. Binary (v2) module payloads when \p PreferBinary and the
/// daemon advertises codec-max >= 2.
LoadResult closedLoop(const std::string &Socket, const Population &Pop,
                      const Sequence &Seq, std::size_t First, double Seconds,
                      unsigned Clients, bool PreferBinary);

/// Open loop: position First + k of \p Seq is due at start + k / Rate and
/// goes out on connection k mod Clients; latency is measured from the due
/// time. Runs for \p Seconds.
LoadResult openLoop(const std::string &Socket, const Population &Pop,
                    const Sequence &Seq, std::size_t First, double Seconds,
                    double Rate, unsigned Clients);

// --- Tracing and replays --------------------------------------------------

/// One timed interval of the traced replay.
struct Span {
  const char *Name = "";
  double StartUs = 0;
  double EndUs = 0;
  std::int32_t Parent = -1;
  std::uint32_t Request = 0;
};

/// Spans kept in memory; written out once the run ends. A disabled tracer
/// records nothing and reads no clock.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  bool enabled() const { return Enabled; }
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }
  std::int32_t add(const char *Name, double StartUs, double EndUs,
                   std::int32_t Parent, std::uint32_t Request) {
    Spans.push_back({Name, StartUs, EndUs, Parent, Request});
    return static_cast<std::int32_t>(Spans.size() - 1);
  }

  std::vector<Span> Spans;

private:
  bool Enabled;
  Clock::time_point Epoch;
};

/// What a replay measured, beyond its spans.
struct ReplayResult {
  double WallSeconds = 0;
  std::uint64_t Ops = 0;
  std::uint64_t Hits = 0; ///< response-cache hits (served replays)
  double RequestBytes = 0;
  double ResponseBytes = 0;
  double Functions = 0;
  double Rounds = 0;
  double LivenessComputes = 0;
  std::uint64_t Mismatches = 0; ///< replayed results != reference results
};

/// Replays the server's own per-request sequence (Server.cpp handleFrame +
/// runBatch) single-threaded against a private AllocationCache(64 MiB):
/// decode, cache key and lookup, parse or binary decode, verify,
/// runAllocationBatch of one item, render, cache insert, encode, release.
/// The first \p Warm entries of \p Order only fill the cache; the rest are
/// timed and traced. With \p Check, every response's allocated IR and
/// totals are compared with \p Ref; that costs time, so a checking replay
/// is not a timed one.
ReplayResult replayServed(const Population &Pop,
                          const std::vector<std::uint32_t> &Order,
                          std::size_t Warm, bool Binary,
                          const std::vector<Expected> &Ref, bool Check,
                          Tracer &T);

/// Every field of two grid-point results equal, bit for bit.
bool sameResult(const ccra::ExperimentResult &A,
                const ccra::ExperimentResult &B);

/// Replays one grid at Jobs=1 point by point, as runExperiments does:
/// analyses through one ModuleAnalysisCache, then runExperiment.
ReplayResult replayGrid(const std::vector<ccra::ExperimentSpec> &Specs,
                        const std::vector<ccra::ExperimentRun> &Ref,
                        Tracer &T);

/// Per-layer self time, summed over the spans of each name.
std::map<std::string, double> selfTimesUs(const std::vector<Span> &Spans);

bool writeTrace(const std::string &Path, const std::string &Workload,
                const std::vector<Span> &Spans);

} // namespace bench

#endif // CCRA_BENCHMARK_BENCH_H
