//===- support/Telemetry.cpp ----------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

using namespace ccra;

// --- TelemetrySnapshot ------------------------------------------------------

double TelemetrySnapshot::count(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second;
}

double TelemetrySnapshot::timeMs(const std::string &Name) const {
  auto It = TimersMs.find(Name);
  return It == TimersMs.end() ? 0.0 : It->second;
}

static bool isMaxCounter(const std::string &Name) {
  const std::string Prefix = telemetry::MaxCounterPrefix;
  return Name.compare(0, Prefix.size(), Prefix) == 0;
}

TelemetrySnapshot &
TelemetrySnapshot::operator+=(const TelemetrySnapshot &Other) {
  for (const auto &[Name, Value] : Other.Counters) {
    double &Slot = Counters[Name];
    if (isMaxCounter(Name))
      Slot = std::max(Slot, Value);
    else
      Slot += Value;
  }
  for (const auto &[Name, Value] : Other.TimersMs)
    TimersMs[Name] += Value;
  return *this;
}

/// %.17g: enough digits that a double survives the text round trip.
static std::string formatNumber(double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

static void writeJsonMap(std::ostream &OS,
                         const std::map<std::string, double> &Map) {
  OS << '{';
  bool First = true;
  for (const auto &[Name, Value] : Map) {
    if (!First)
      OS << ", ";
    First = false;
    OS << '"' << Name << "\": " << formatNumber(Value);
  }
  OS << '}';
}

void TelemetrySnapshot::writeJson(std::ostream &OS) const {
  OS << "{\"counters\": ";
  writeJsonMap(OS, Counters);
  OS << ", \"timers_ms\": ";
  writeJsonMap(OS, TimersMs);
  OS << "}\n";
}

static void appendJsonMap(std::string &Out,
                          const std::map<std::string, double> &Map) {
  Out += '{';
  bool First = true;
  char Buffer[64];
  for (const auto &[Name, Value] : Map) {
    if (!First)
      Out += ", ";
    First = false;
    Out += '"';
    Out += Name;
    Out += "\": ";
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
    Out += Buffer;
  }
  Out += '}';
}

std::string TelemetrySnapshot::toJson() const {
  // String-append rather than ostringstream: the allocation service
  // renders one of these per response, where stream construction alone
  // is measurable against sub-millisecond requests. Byte-identical to
  // writeJson (same %.17g formatting).
  std::string Out;
  Out.reserve(32 * (Counters.size() + TimersMs.size()) + 64);
  Out += "{\"counters\": ";
  appendJsonMap(Out, Counters);
  Out += ", \"timers_ms\": ";
  appendJsonMap(Out, TimersMs);
  Out += "}\n";
  return Out;
}

void TelemetrySnapshot::writeCsv(std::ostream &OS) const {
  OS << "kind,name,value\n";
  for (const auto &[Name, Value] : Counters)
    OS << "counter," << Name << ',' << formatNumber(Value) << '\n';
  for (const auto &[Name, Value] : TimersMs)
    OS << "timer_ms," << Name << ',' << formatNumber(Value) << '\n';
}

TelemetrySnapshot TelemetrySnapshot::withoutSchedulingCounters() const {
  TelemetrySnapshot Out = *this;
  const std::string Prefix = telemetry::SchedPrefix;
  for (auto It = Out.Counters.begin(); It != Out.Counters.end();) {
    // Peak counters measure buffer capacity, which depends on arena reuse
    // order — scheduling-dependent just like the "sched." namespace.
    if (It->first.compare(0, Prefix.size(), Prefix) == 0 ||
        isMaxCounter(It->first))
      It = Out.Counters.erase(It);
    else
      ++It;
  }
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
  bool parseNumberMap(std::map<std::string, double> &Out) {
    Out.clear();
    if (!consume('{'))
      return false;
    skipSpace();
    if (consume('}'))
      return true;
    while (true) {
      std::string Key;
      double Value;
      if (!parseString(Key) || !consume(':') || !parseNumber(Value))
        return false;
      Out[Key] = Value;
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
      !C.parseNumberMap(Out.Counters))
    return false;
  if (!C.consume(',') || !C.parseString(Key) || Key != "timers_ms" ||
      !C.consume(':') || !C.parseNumberMap(Out.TimersMs))
    return false;
  if (!C.consume('}'))
    return false;
  C.skipSpace();
  return C.P == C.End;
}

// --- Telemetry --------------------------------------------------------------

void Telemetry::addCount(const std::string &Name, double Delta) {
  std::lock_guard<std::mutex> Lock(M);
  Data.Counters[Name] += Delta;
}

void Telemetry::noteMax(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(M);
  double &Slot = Data.Counters[Name];
  Slot = std::max(Slot, Value);
}

void Telemetry::addTimeMs(const std::string &Name, double Ms) {
  std::lock_guard<std::mutex> Lock(M);
  Data.TimersMs[Name] += Ms;
}

double &Telemetry::SlotCache::get(Map &Entries, const char *Name) {
  for (auto &[Address, It] : Slots)
    if (Address == Name) {
      if (It->first != Name)
        It = Entries.try_emplace(Name).first;
      return It->second;
    }
  auto It = Entries.try_emplace(Name).first;
  if (Slots.size() < MaxSlots)
    Slots.emplace_back(Name, It);
  return It->second;
}

void Telemetry::addCount(const char *Name, double Delta) {
  std::lock_guard<std::mutex> Lock(M);
  CounterSlots.get(Data.Counters, Name) += Delta;
}

void Telemetry::noteMax(const char *Name, double Value) {
  std::lock_guard<std::mutex> Lock(M);
  double &Slot = CounterSlots.get(Data.Counters, Name);
  Slot = std::max(Slot, Value);
}

void Telemetry::addTimeMs(const char *Name, double Ms) {
  std::lock_guard<std::mutex> Lock(M);
  TimerSlots.get(Data.TimersMs, Name) += Ms;
}

void Telemetry::merge(const TelemetrySnapshot &Other) {
  std::lock_guard<std::mutex> Lock(M);
  Data += Other;
}

double Telemetry::count(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  return Data.count(Name);
}

double Telemetry::timeMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  return Data.timeMs(Name);
}

TelemetrySnapshot Telemetry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  return Data;
}

TelemetrySnapshot Telemetry::takeSnapshot() {
  std::lock_guard<std::mutex> Lock(M);
  TelemetrySnapshot Out = std::move(Data);
  Data = TelemetrySnapshot();
  CounterSlots.clear();
  TimerSlots.clear();
  return Out;
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  Data = TelemetrySnapshot();
  CounterSlots.clear();
  TimerSlots.clear();
}
