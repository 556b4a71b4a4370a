//===- support/Telemetry.h - Phase timers and counters ----------*- C++ -*-===//
///
/// \file
/// The measurement layer of the allocation engine: counters (rounds,
/// spills, coalesces, callee registers paid, ...) and per-phase wall-clock
/// timers, with JSON and CSV emitters so bench output is machine-comparable
/// across runs and PRs.
///
/// Every metric is one row of the table in support/Telemetry.def: its id
/// (telemetry::Functions, telemetry::ColorPhase, ...), its name in the
/// output, its kind, its merge rule and its determinism class. Recording
/// and reading go by id; only the emitters and the parser see names.
/// Adding a metric means adding one row there.
///
/// Two types split the concerns:
///
/// - TelemetrySnapshot: a plain, copyable value holding one slot per
///   metric, plus (de)serialization. What gets emitted, diffed, and
///   asserted on in tests.
/// - Telemetry: a thread-safe recorder. Worker threads record into
///   task-local recorders; the engine merges them in task order so
///   aggregate counters are deterministic.
///
/// JSON schema (all values doubles; timers in milliseconds; keys sorted,
/// only the metrics that were recorded):
///
///   {
///     "counters": {"functions": 14, "rounds": 19, ...},
///     "timers_ms": {"coalesce": 0.51, "color": 1.74, ...}
///   }
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_TELEMETRY_H
#define CCRA_SUPPORT_TELEMETRY_H

#include <array>
#include <bitset>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

namespace ccra {

namespace telemetry {

enum class MetricKind : std::uint8_t { Counter, Timer };
enum class MergeRule : std::uint8_t { Sum, Max };
enum class Determinism : std::uint8_t { Deterministic, Scheduling };

/// The id of every counter and timer, in table order.
enum Metric : std::uint8_t {
#define CCRA_METRIC(Id, Name, Kind, Merge, Class) Id,
#include "support/Telemetry.def"
  NumMetrics
};

/// One row of the table.
struct MetricInfo {
  const char *Name;
  MetricKind Kind;
  MergeRule Merge;
  Determinism Class;
};

inline constexpr MetricInfo Metrics[NumMetrics] = {
#define CCRA_METRIC(Id, Name, Kind, Merge, Class)                             \
  {Name, MetricKind::Kind, MergeRule::Merge, Determinism::Class},
#include "support/Telemetry.def"
};

constexpr const MetricInfo &info(Metric Id) { return Metrics[Id]; }

} // namespace telemetry

/// A copyable sample of telemetry state: one slot per metric, and which
/// slots were recorded.
class TelemetrySnapshot {
public:
  bool empty() const { return Recorded.none(); }
  bool has(telemetry::Metric Id) const { return Recorded.test(Id); }

  /// The value of counter (timer) \p Id; 0 when it was not recorded.
  double count(telemetry::Metric Id) const;
  double timeMs(telemetry::Metric Id) const;

  /// Stores \p Value in slot \p Id, as a gauge sampled at snapshot time.
  void set(telemetry::Metric Id, double Value);

  /// Merges every metric of \p Other into this snapshot under its row's
  /// merge rule.
  TelemetrySnapshot &operator+=(const TelemetrySnapshot &Other);

  bool operator==(const TelemetrySnapshot &Other) const = default;

  /// Emits the schema documented above. Numbers use max precision, so a
  /// write -> parse round trip reproduces the snapshot exactly.
  void writeJson(std::ostream &OS) const;
  std::string toJson() const;

  /// Emits "kind,name,value" rows (kind is "counter" or "timer_ms") with a
  /// header row.
  void writeCsv(std::ostream &OS) const;

  /// Parses text produced by writeJson/toJson. Returns false (leaving
  /// \p Out in an unspecified state) on malformed input, including a name
  /// that is not a row of its kind in the table.
  static bool fromJson(const std::string &Text, TelemetrySnapshot &Out);

  /// Returns a copy holding only the Deterministic rows: functions of the
  /// allocation inputs, identical at any Jobs setting and with any
  /// cache/scratch configuration. Scheduling-class counters and every
  /// timer legitimately vary run to run. Equality assertions across Jobs
  /// settings must compare this view.
  TelemetrySnapshot withoutSchedulingCounters() const;

private:
  friend class Telemetry;

  /// Folds \p Value into slot \p Id under the row's merge rule.
  void record(telemetry::Metric Id, double Value);
  /// Calls \p Visit(Name, Number) for each recorded row of \p Kind, in
  /// table order, with the value formatted for output.
  template <typename Fn>
  void forEach(telemetry::MetricKind Kind, Fn Visit) const;

  std::array<double, telemetry::NumMetrics> Values{};
  std::bitset<telemetry::NumMetrics> Recorded;
};

/// A thread-safe telemetry recorder.
class Telemetry {
public:
  Telemetry() = default;

  void addCount(telemetry::Metric Id, double Delta = 1.0);
  /// Raises counter \p Id to \p Value if it is below it: for the
  /// high-water rows, whose merge rule is Max.
  void noteMax(telemetry::Metric Id, double Value);
  void addTimeMs(telemetry::Metric Id, double Ms);
  /// Merges everything \p Other recorded into this recorder.
  void merge(const Telemetry &Other);

  double count(telemetry::Metric Id) const;
  double timeMs(telemetry::Metric Id) const;

  TelemetrySnapshot snapshot() const;
  void reset();

  /// Adds the elapsed wall-clock time to timer \p Id on destruction.
  /// Null-safe: a null recorder makes the timer a no-op.
  class ScopedTimer {
  public:
    ScopedTimer(Telemetry *T, telemetry::Metric Id) : T(T), Id(Id) {
      if (T)
        Start = std::chrono::steady_clock::now();
    }
    ~ScopedTimer() {
      if (!T)
        return;
      std::chrono::duration<double, std::milli> Elapsed =
          std::chrono::steady_clock::now() - Start;
      T->addTimeMs(Id, Elapsed.count());
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Telemetry *T;
    telemetry::Metric Id;
    std::chrono::steady_clock::time_point Start;
  };

private:
  mutable std::mutex M;
  TelemetrySnapshot Data;
};

} // namespace ccra

#endif // CCRA_SUPPORT_TELEMETRY_H
