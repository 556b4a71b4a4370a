//===- analysis/AnalysisCache.cpp -----------------------------------------===//

#include "analysis/AnalysisCache.h"

#include "ir/Module.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

const FrequencyInfo &ModuleAnalysisCache::frequencies(const Module &Mod,
                                                      FrequencyMode Mode,
                                                      bool *WasHit) {
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = Frequencies.try_emplace({&Mod, Mode});
  if (Inserted) {
    ++Counts.FrequencyMisses;
    It->second =
        std::make_unique<FrequencyInfo>(FrequencyInfo::compute(Mod, Mode));
  } else {
    ++Counts.FrequencyHits;
  }
  if (WasHit)
    *WasHit = !Inserted;
  return *It->second;
}

const Liveness &ModuleAnalysisCache::baselineLiveness(const Module &Mod,
                                                      unsigned FnIdx,
                                                      bool *WasHit) {
  assert(FnIdx < Mod.functions().size() && "function index out of range");
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = Baselines.try_emplace({&Mod, FnIdx});
  if (Inserted) {
    ++Counts.LivenessMisses;
    It->second = std::make_unique<Liveness>(
        Liveness::compute(*Mod.functions()[FnIdx]));
  } else {
    ++Counts.LivenessHits;
  }
  if (WasHit)
    *WasHit = !Inserted;
  return *It->second;
}

const CoalesceOutcome *
ModuleAnalysisCache::coalesceOutcome(const CoalesceKey &Key) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Coalesced.find(
      {Key.Source, Key.IntRegs, Key.FloatRegs, Key.Aggressive});
  if (It == Coalesced.end() || It->second[Key.FnIdx].Passes == 0) {
    ++Counts.CoalesceMisses;
    return nullptr;
  }
  ++Counts.CoalesceHits;
  return &It->second[Key.FnIdx];
}

namespace {

/// The heap a malloc'd block of \p Size bytes occupies: glibc rounds a
/// request plus its 8-byte header up to 16 bytes, 32 at least.
std::size_t heapBlock(std::size_t Size) {
  return Size == 0 ? 0 : std::max<std::size_t>(32, (Size + 8 + 15) & ~std::size_t{15});
}

/// A std::map node's payload beyond its value: three links and a color.
constexpr std::size_t MapNodeLinks = 4 * sizeof(void *);

} // namespace

const CoalesceOutcome *
ModuleAnalysisCache::publishCoalesceOutcome(const CoalesceKey &Key,
                                            CoalesceOutcome Outcome) {
  const std::size_t Functions = Key.Source->functions().size();
  assert(Key.FnIdx < Functions && "function index out of range");
  assert(Outcome.Passes > 0 && "a coalescer run makes at least one pass");
  Outcome.Merges.shrink_to_fit();
  const std::size_t MergeBytes = heapBlock(
      Outcome.Merges.capacity() * sizeof(Outcome.Merges.front()));
  using Node = decltype(Coalesced)::value_type;
  const std::size_t BudgetBytes =
      heapBlock(sizeof(Node) + MapNodeLinks) +
      heapBlock(Functions * sizeof(CoalesceOutcome));

  std::lock_guard<std::mutex> Lock(M);
  const auto BudgetKey =
      std::make_tuple(Key.Source, Key.IntRegs, Key.FloatRegs, Key.Aggressive);
  auto It = Coalesced.find(BudgetKey);
  if (It != Coalesced.end() && It->second[Key.FnIdx].Passes != 0)
    return &It->second[Key.FnIdx]; // lost a publish race: same outcome
  const std::size_t Cost =
      MergeBytes + (It == Coalesced.end() ? BudgetBytes : 0);
  if (Cost > CoalesceByteLimit - Counts.CoalesceBytes)
    return nullptr;
  Counts.CoalesceBytes += Cost;
  if (It == Coalesced.end())
    It = Coalesced.emplace(BudgetKey, std::vector<CoalesceOutcome>(Functions))
             .first;
  CoalesceOutcome &Slot = It->second[Key.FnIdx];
  Slot = std::move(Outcome);
  return &Slot;
}

ModuleAnalysisCache::Stats ModuleAnalysisCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counts;
}
