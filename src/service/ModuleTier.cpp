//===- service/ModuleTier.cpp ---------------------------------------------===//

#include "service/ModuleTier.h"

#include <cassert>

using namespace ccra;

ModuleTier::SlotList::iterator ModuleTier::find(std::uint64_t Hash, bool Binary,
                                                const std::string &Bytes) {
  auto [First, Last] = Index.equal_range(Hash);
  for (auto It = First; It != Last; ++It)
    if (It->second->Binary == Binary && It->second->Bytes == Bytes)
      return It->second;
  return Lru.end();
}

std::shared_ptr<ModuleTier::Entry>
ModuleTier::lookup(std::uint64_t Hash, bool Binary, const std::string &Bytes) {
  if (!enabled())
    return nullptr;
  std::lock_guard<std::mutex> Lock(M);
  auto It = find(Hash, Binary, Bytes);
  if (It == Lru.end()) {
    ++Misses;
    return nullptr;
  }
  ++Hits;
  Lru.splice(Lru.begin(), Lru, It);
  return It->Value;
}

std::shared_ptr<ModuleTier::Entry>
ModuleTier::insert(std::uint64_t Hash, bool Binary, const std::string &Bytes,
                   std::unique_ptr<Module> Program) {
  assert(admits(Binary, Bytes.size()) && "module over the per-entry cap");
  // The new slot (key copy included) is built, and a losing or evicted
  // entry freed, outside the lock: both are declared before it.
  const std::size_t Charge = charge(Binary, Bytes.size());
  SlotList Fresh;
  Fresh.push_back({Hash, Binary, Bytes, Charge,
                   std::make_shared<Entry>(Charge / MemoShare)});
  std::shared_ptr<Entry> Value = Fresh.front().Value;
  Value->Program = std::move(Program);
  SlotList Evicted;

  std::lock_guard<std::mutex> Lock(M);
  auto Existing = find(Hash, Binary, Bytes);
  if (Existing != Lru.end())
    return Existing->Value; // lost an insert race; the entries are identical

  TotalBytes += Fresh.front().Charge;
  Lru.splice(Lru.begin(), Fresh);
  Index.emplace(Hash, Lru.begin());
  while (TotalBytes > MaxBytes) {
    auto Tail = std::prev(Lru.end());
    auto [First, Last] = Index.equal_range(Tail->Hash);
    for (auto It = First; It != Last; ++It)
      if (It->second == Tail) {
        Index.erase(It);
        break;
      }
    TotalBytes -= Tail->Charge;
    Evicted.splice(Evicted.end(), Lru, Tail);
    ++Evictions;
  }
  return Value;
}

ModuleTierStats ModuleTier::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  ModuleTierStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Lru.size();
  S.Bytes = TotalBytes;
  for (const Slot &E : Lru)
    S.MemoBytes += E.Value->Analyses.stats().CoalesceBytes;
  return S;
}
