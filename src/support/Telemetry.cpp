//===- support/Telemetry.cpp ----------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>

using namespace ccra;
using namespace ccra::telemetry;

// --- TelemetrySnapshot ------------------------------------------------------

double TelemetrySnapshot::count(Metric Id) const {
  assert(info(Id).Kind == MetricKind::Counter && "count() of a timer");
  return Values[Id];
}

double TelemetrySnapshot::timeMs(Metric Id) const {
  assert(info(Id).Kind == MetricKind::Timer && "timeMs() of a counter");
  return Values[Id];
}

void TelemetrySnapshot::set(Metric Id, double Value) {
  Values[Id] = Value;
  Recorded.set(Id);
}

void TelemetrySnapshot::record(Metric Id, double Value) {
  double &Slot = Values[Id];
  Slot = info(Id).Merge == MergeRule::Max ? std::max(Slot, Value)
                                          : Slot + Value;
  Recorded.set(Id);
}

TelemetrySnapshot &
TelemetrySnapshot::operator+=(const TelemetrySnapshot &Other) {
  for (unsigned I = 0; I < NumMetrics; ++I)
    if (Other.Recorded.test(I))
      record(Metric(I), Other.Values[I]);
  return *this;
}

template <typename Fn>
void TelemetrySnapshot::forEach(MetricKind Kind, Fn Visit) const {
  char Buffer[64];
  for (unsigned I = 0; I < NumMetrics; ++I) {
    if (Metrics[I].Kind != Kind || !Recorded.test(I))
      continue;
    // %.17g: enough digits that a double survives the text round trip.
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Values[I]);
    Visit(Metrics[I].Name, Buffer);
  }
}

std::string TelemetrySnapshot::toJson() const {
  // String-append rather than ostringstream: the allocation service
  // renders one of these per response, where stream construction alone
  // is measurable against sub-millisecond requests.
  std::string Out;
  Out.reserve(32 * Recorded.count() + 64);
  const char *Separator;
  auto Append = [&](const char *Name, const char *Number) {
    Out += Separator;
    Out += '"';
    Out += Name;
    Out += "\": ";
    Out += Number;
    Separator = ", ";
  };
  Out += "{\"counters\": {";
  Separator = "";
  forEach(MetricKind::Counter, Append);
  Out += "}, \"timers_ms\": {";
  Separator = "";
  forEach(MetricKind::Timer, Append);
  Out += "}}\n";
  return Out;
}

void TelemetrySnapshot::writeJson(std::ostream &OS) const { OS << toJson(); }

void TelemetrySnapshot::writeCsv(std::ostream &OS) const {
  OS << "kind,name,value\n";
  forEach(MetricKind::Counter, [&](const char *Name, const char *Number) {
    OS << "counter," << Name << ',' << Number << '\n';
  });
  forEach(MetricKind::Timer, [&](const char *Name, const char *Number) {
    OS << "timer_ms," << Name << ',' << Number << '\n';
  });
}

TelemetrySnapshot TelemetrySnapshot::withoutSchedulingCounters() const {
  TelemetrySnapshot Out;
  for (unsigned I = 0; I < NumMetrics; ++I)
    if (Recorded.test(I) && Metrics[I].Class == Determinism::Deterministic)
      Out.set(Metric(I), Values[I]);
  return Out;
}

// A minimal recursive-descent parser for exactly the JSON this file emits
// (an object of objects of numbers). Whitespace-tolerant; rejects
// everything else.
namespace {

struct JsonCursor {
  const char *P;
  const char *End;

  void skipSpace() {
    while (P != End && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }
  bool consume(char C) {
    skipSpace();
    if (P == End || *P != C)
      return false;
    ++P;
    return true;
  }
  bool parseString(std::string &Out) {
    skipSpace();
    if (P == End || *P != '"')
      return false;
    ++P;
    Out.clear();
    while (P != End && *P != '"') {
      if (*P == '\\') // no escapes in emitted keys
        return false;
      Out.push_back(*P++);
    }
    if (P == End)
      return false;
    ++P; // closing quote
    return true;
  }
  bool parseNumber(double &Out) {
    skipSpace();
    char *NumEnd = nullptr;
    Out = std::strtod(P, &NumEnd);
    if (NumEnd == P)
      return false;
    P = NumEnd;
    return true;
  }
  /// Parses one {"name": number, ...} object of \p Kind's rows into \p Out.
  bool parseMetrics(MetricKind Kind, TelemetrySnapshot &Out) {
    if (!consume('{'))
      return false;
    skipSpace();
    if (consume('}'))
      return true;
    std::string Key;
    while (true) {
      double Value;
      if (!parseString(Key) || !consume(':') || !parseNumber(Value))
        return false;
      unsigned I = 0;
      while (I < NumMetrics &&
             (Metrics[I].Kind != Kind || Key != Metrics[I].Name))
        ++I;
      if (I == NumMetrics)
        return false;
      Out.set(Metric(I), Value);
      if (consume(','))
        continue;
      return consume('}');
    }
  }
};

} // namespace

bool TelemetrySnapshot::fromJson(const std::string &Text,
                                 TelemetrySnapshot &Out) {
  JsonCursor C{Text.data(), Text.data() + Text.size()};
  Out = TelemetrySnapshot();
  if (!C.consume('{'))
    return false;
  std::string Key;
  if (!C.parseString(Key) || Key != "counters" || !C.consume(':') ||
      !C.parseMetrics(MetricKind::Counter, Out))
    return false;
  if (!C.consume(',') || !C.parseString(Key) || Key != "timers_ms" ||
      !C.consume(':') || !C.parseMetrics(MetricKind::Timer, Out))
    return false;
  if (!C.consume('}'))
    return false;
  C.skipSpace();
  return C.P == C.End;
}

// --- Telemetry --------------------------------------------------------------

void Telemetry::addCount(Metric Id, double Delta) {
  assert(info(Id).Kind == MetricKind::Counter &&
         info(Id).Merge == MergeRule::Sum && "addCount() of a non-sum row");
  std::lock_guard<std::mutex> Lock(M);
  Data.record(Id, Delta);
}

void Telemetry::noteMax(Metric Id, double Value) {
  assert(info(Id).Kind == MetricKind::Counter &&
         info(Id).Merge == MergeRule::Max && "noteMax() of a non-max row");
  std::lock_guard<std::mutex> Lock(M);
  Data.record(Id, Value);
}

void Telemetry::addTimeMs(Metric Id, double Ms) {
  assert(info(Id).Kind == MetricKind::Timer && "addTimeMs() of a counter");
  std::lock_guard<std::mutex> Lock(M);
  Data.record(Id, Ms);
}

void Telemetry::merge(const Telemetry &Other) {
  assert(&Other != this && "merging a recorder into itself");
  std::scoped_lock Lock(M, Other.M);
  Data += Other.Data;
}

double Telemetry::count(Metric Id) const {
  std::lock_guard<std::mutex> Lock(M);
  return Data.count(Id);
}

double Telemetry::timeMs(Metric Id) const {
  std::lock_guard<std::mutex> Lock(M);
  return Data.timeMs(Id);
}

TelemetrySnapshot Telemetry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  return Data;
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  Data = TelemetrySnapshot();
}
