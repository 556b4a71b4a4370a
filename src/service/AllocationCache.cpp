//===- service/AllocationCache.cpp ----------------------------------------===//

#include "service/AllocationCache.h"

#include "support/Hash.h"

#include <iterator>

using namespace ccra;

std::string ccra::allocationCacheKey(const AllocRequest &R) {
  std::string Key;
  Key.reserve(R.ModuleText.size() + 256);
  Key += R.Options.canonicalKey();
  Key += " config=";
  Key += std::to_string(R.Config.IntCallerSave) + "," +
         std::to_string(R.Config.FloatCallerSave) + "," +
         std::to_string(R.Config.IntCalleeSave) + "," +
         std::to_string(R.Config.FloatCalleeSave);
  Key += " mode=";
  Key += R.Mode == FrequencyMode::Static ? "static" : "profile";
  Key += '\n';
  // Both codecs tag the payload section, so crafted text can never alias a
  // binary entry (lookup runs before parse — without the tag a text
  // request whose bytes equal "v2\n" + someone's binary payload would
  // replay that entry's response). A module submitted through both codecs
  // occupies two entries: keying on the canonical text would mean decoding
  // + printing the binary before lookup, putting the parse cost the codec
  // exists to remove back on every request.
  if (!R.ModuleBinary.empty()) {
    Key += "wire=v2\n";
    Key += R.ModuleBinary;
  } else {
    Key += "wire=v1\n";
    Key += R.ModuleText;
  }
  return Key;
}

AllocationCache::EntryList::iterator
AllocationCache::find(std::uint64_t Hash, const std::string &Key) {
  auto [First, Last] = Index.equal_range(Hash);
  for (auto It = First; It != Last; ++It)
    if (It->second->Key == Key)
      return It->second;
  return Lru.end();
}

WireFrame AllocationCache::lookup(std::uint64_t Hash, const std::string &Key) {
  if (!enabled())
    return nullptr;
  std::lock_guard<std::mutex> Lock(M);
  auto It = find(Hash, Key);
  if (It == Lru.end()) {
    ++Misses;
    return nullptr;
  }
  ++Hits;
  Lru.splice(Lru.begin(), Lru, It);
  return It->Response;
}

void AllocationCache::insert(std::uint64_t Hash, const std::string &Key,
                             WireFrame Response) {
  if (!enabled())
    return;
  std::size_t Charge = Key.size() + Response->size() + sizeof(Entry);
  if (Charge > MaxBytes)
    return; // would evict everything and still not fit

  // The entry, key copy included, is built before taking the lock. The
  // copy is deliberate: moving in the key the daemon's event loop built,
  // so that a loop-thread allocation stays resident, measured a higher
  // peak RSS on the corpus_cold benchmark (66.3 MiB against 65.4).
  EntryList Node;
  Node.push_back({Hash, Key, std::move(Response), Charge});

  std::lock_guard<std::mutex> Lock(M);
  if (find(Hash, Key) != Lru.end())
    return; // lost a publish race; the existing entry is identical
  Lru.splice(Lru.begin(), Node);
  Index.emplace(Hash, Lru.begin());
  TotalBytes += Charge;
  ++Insertions;
  evictToFit();
}

void AllocationCache::evictToFit() {
  while (TotalBytes > MaxBytes && !Lru.empty()) {
    auto Victim = std::prev(Lru.end());
    auto [First, Last] = Index.equal_range(Victim->Hash);
    for (auto It = First; It != Last; ++It)
      if (It->second == Victim) {
        Index.erase(It);
        break;
      }
    TotalBytes -= Victim->Charge;
    Lru.erase(Victim);
    ++Evictions;
  }
}

bool AllocationCache::lookup(const std::string &Key, AllocResponse &Out) {
  WireFrame Hit = lookup(hash64(Key), Key);
  return Hit && parseAllocResponse(Hit->substr(WireHeaderSize), Out);
}

void AllocationCache::insert(const std::string &Key,
                             const std::string &IrHeader,
                             const CostBreakdown &Totals,
                             const TelemetrySnapshot &Telemetry,
                             std::vector<FunctionRecord> Functions) {
  if (!enabled())
    return;
  AllocResponse R;
  R.Totals = Totals;
  R.Telemetry = Telemetry;
  R.AllocatedIr = IrHeader;
  for (const FunctionRecord &F : Functions) {
    R.AllocatedIr += F.Ir;
    if (F.HasSummary)
      R.Functions.push_back(F.Summary);
  }
  insert(hash64(Key), Key, encodeAllocResponseFrame(R));
}

AllocationCacheStats AllocationCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  AllocationCacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Insertions = Insertions;
  S.Bytes = TotalBytes;
  S.Modules = Lru.size();
  return S;
}
