//===- regalloc/RegAllocBase.h - Allocator interface ------------*- C++ -*-===//
///
/// \file
/// The interface one coloring approach implements inside the shared
/// framework: given a round's context (live ranges + interference graph),
/// decide a storage location for every live range. The driver
/// (AllocationEngine) handles spill-code insertion, the rebuild after it,
/// retries, overhead materialization, and cost accounting.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_REGALLOCBASE_H
#define CCRA_REGALLOC_REGALLOCBASE_H

#include "regalloc/AllocationContext.h"

namespace ccra {

class RegAllocBase {
public:
  virtual ~RegAllocBase() = default;

  /// Runs color ordering + color assignment for one round. Must fill
  /// \p RR.Assignment with one Location per live range; Memory entries are
  /// spill decisions the driver will materialize.
  virtual void runRound(AllocationContext &Ctx, RoundResult &RR) = 0;

  virtual const char *name() const = 0;
};

} // namespace ccra

#endif // CCRA_REGALLOC_REGALLOCBASE_H
