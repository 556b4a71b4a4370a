//===- harness/Batch.cpp --------------------------------------------------===//

#include "harness/Batch.h"

#include "harness/Experiment.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace ccra;

namespace {

AllocationBatchResult runItem(const AllocationBatchItem &Item,
                              ThreadPool *Pool) {
  assert(Item.Program && "batch item needs a program");
  AllocationBatchResult Out;
  Telemetry T;
  Out.Result = SourceAllocation(*Item.Program)
                   .run(Item.Config, Item.Options, Item.Mode,
                        Item.Options.Jobs, T, Pool)
                   .takeOrThrow();
  Out.Telemetry = T.takeSnapshot();
  return Out;
}

} // namespace

std::vector<AllocationBatchResult>
ccra::runAllocationBatch(const std::vector<AllocationBatchItem> &Items,
                         ThreadPool *Pool) {
  std::vector<AllocationBatchResult> Results(Items.size());
  if (!Pool || Items.size() <= 1) {
    for (std::size_t I = 0; I < Items.size(); ++I)
      Results[I] = runItem(Items[I], Pool);
    return Results;
  }
  Pool->parallelForEach(Items.size(), [&](std::size_t I) {
    Results[I] = runItem(Items[I], Pool);
  });
  return Results;
}
