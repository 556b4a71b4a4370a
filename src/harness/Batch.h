//===- harness/Batch.h - Coalesced allocation batches -----------*- C++ -*-===//
///
/// \file
/// A *batch* is a set of independent allocation requests (each with its
/// own module, register configuration, options, and frequency mode),
/// optionally fanned out over a shared ThreadPool. Every item allocates
/// its module in place through SourceAllocation (harness/Experiment.h),
/// with no shared analyses, and the per-item results are bit-identical to
/// running the same request alone. The allocation service no longer uses
/// batches (its workers run SourceAllocation against the module tier);
/// the benchmark's in-process replay of a served request still does.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_HARNESS_BATCH_H
#define CCRA_HARNESS_BATCH_H

#include "analysis/Frequency.h"
#include "regalloc/AllocationResult.h"
#include "regalloc/AllocatorOptions.h"
#include "support/Telemetry.h"
#include "target/MachineDescription.h"

#include <vector>

namespace ccra {

class Module;
class ThreadPool;

/// One request of a batch. The module is allocated (mutated) in place.
struct AllocationBatchItem {
  Module *Program = nullptr;
  RegisterConfig Config;
  AllocatorOptions Options;
  FrequencyMode Mode = FrequencyMode::Profile;
};

struct AllocationBatchResult {
  ModuleAllocationResult Result;
  TelemetrySnapshot Telemetry; ///< this item's engine telemetry
};

/// Runs every item of \p Items, fanning the batch across \p Pool when one
/// is given (items run concurrently, and each item's engine additionally
/// fans its functions out on the same pool when its Options.Jobs asks for
/// parallelism — nested batches, never nested pools). Output order matches
/// input order and each result is bit-identical to a serial run of the
/// same item. An item whose configuration cannot color its module throws
/// UncolorableError with SourceAllocation's diagnostic; the first
/// exception an item throws is rethrown after the batch drains.
std::vector<AllocationBatchResult>
runAllocationBatch(const std::vector<AllocationBatchItem> &Items,
                   ThreadPool *Pool);

} // namespace ccra

#endif // CCRA_HARNESS_BATCH_H
