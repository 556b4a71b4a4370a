//===- regalloc/AllocatorOptions.h - Allocator configuration ----*- C++ -*-===//
///
/// \file
/// Every register-allocation approach the paper evaluates is a point in
/// this option space: base/optimistic/improved Chaitin-style coloring,
/// priority-based coloring with its three color-ordering heuristics, and
/// the CBH call-cost model. The factory helpers name the exact
/// configurations used by the reproduction benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_ALLOCATOROPTIONS_H
#define CCRA_REGALLOC_ALLOCATOROPTIONS_H

#include <string>

namespace ccra {

enum class AllocatorKind {
  Chaitin,  ///< Base model (§3.1); Optimistic flag selects Briggs coloring.
  Improved, ///< Chaitin + the paper's SC/BS/PR enhancements (§4-6).
  Priority, ///< Chow's priority-based coloring without splitting (§9).
  CBH,      ///< Chaitin/Briggs/Hierarchical call-cost model (§10).
};

/// The two orderings of §5 for benefit-driven simplification.
enum class BenefitKeyStrategy {
  /// Strategy 1: max(benefitCaller, benefitCallee) — the priority-based
  /// key, shown by the paper to be the wrong fit for Chaitin coloring.
  MaxBenefit,
  /// Strategy 2: |benefitCaller - benefitCallee| when both benefits are
  /// non-negative (the penalty of getting the wrong kind of register),
  /// max of the two otherwise. The paper's choice.
  Delta,
};

/// The two callee-save cost models of §4.
enum class CalleeCostModel {
  /// The first live range to use a callee-save register pays the whole
  /// save/restore cost and is spilled when benefitCallee < 0.
  FirstUserPays,
  /// The cost is shared by every user of the register: after color
  /// assignment, all users of a register r are spilled together iff the sum
  /// of their spill costs is below calleeCost(r). The paper's better model.
  Shared,
};

/// The three color-ordering heuristics for priority-based coloring (§9.1).
enum class PriorityOrdering {
  RemoveUnconstrained, ///< Chow's original: peel unconstrained, sort rest.
  SortUnconstrained,   ///< Peel unconstrained in priority order too.
  FullSort,            ///< Pure priority sort. The paper's choice.
};

struct AllocatorOptions {
  AllocatorKind Kind = AllocatorKind::Improved;

  /// Briggs optimistic coloring: blocked live ranges are pushed anyway and
  /// spill only if color assignment actually fails (§8).
  bool Optimistic = false;

  // The three improvements (only honored by AllocatorKind::Improved).
  bool StorageClass = true;       ///< §4
  bool BenefitSimplify = true;    ///< §5
  bool PreferenceDecision = true; ///< §6

  BenefitKeyStrategy BSKey = BenefitKeyStrategy::Delta;
  CalleeCostModel CalleeModel = CalleeCostModel::Shared;
  PriorityOrdering Ordering = PriorityOrdering::FullSort;

  /// Coalesce copies aggressively (ignore the conservative degree test).
  bool AggressiveCoalescing = false;

  /// Materialize save/restore instructions after allocation (the cost
  /// accounting works either way; materialization enables inspection and
  /// the post-allocation verifier's pairing checks).
  bool MaterializeSaveRestore = true;

  /// Run the allocation verifier after convergence.
  bool Verify = true;

  /// With Verify on, collect verifier failures into
  /// FunctionAllocation::VerifyErrors instead of aborting the process. The
  /// differential fuzz harness runs with this set so a soundness violation
  /// becomes a reported (and shrinkable) finding rather than a crash.
  bool VerifyReportOnly = false;

  /// Concurrent function allocations in allocateModule: 1 = serial (the
  /// escape hatch; default), 0 = one job per hardware thread, N = exactly
  /// N jobs. Results are bit-identical at any setting; the engine reduces
  /// per-function results in function order.
  unsigned Jobs = 1;

  /// Short human-readable tag ("base", "opt", "SC+BS+PR", ...).
  std::string describe() const;

  /// The one textual form: a fixed-order `key=value` line covering ONLY
  /// the fields that can change the allocation *result* (assignment,
  /// costs, emitted IR) — Kind, Optimistic, the three improvements, BSKey,
  /// CalleeModel, Ordering, AggressiveCoalescing, MaterializeSaveRestore.
  /// The execution fields (Jobs, Verify, VerifyReportOnly) are excluded:
  /// results are bit-identical across them, so two options differing only
  /// there MUST share a key, and they are set from code, never from text.
  /// The form is order- and default-insensitive by construction (fixed
  /// order, every included field always emitted) and parses back through
  /// parseAllocatorOptions.
  /// Property-tested in tests/PropertyTest.cpp: semantically equal options
  /// produce equal keys and every behavior-affecting field perturbs the
  /// key. The wire protocol, `ccra_cc --options` and the content-addressed
  /// allocation cache (service/AllocationCache.h) all use this form.
  std::string canonicalKey() const;

  bool operator==(const AllocatorOptions &Other) const = default;
};

/// Parses text in the canonicalKey() form. Tokens may appear in any order;
/// omitted fields keep their defaults; an unknown key (the execution
/// fields included), malformed token, or bad value fails. Returns false
/// (leaving \p Out in an unspecified state) on failure, with a diagnostic
/// naming the offending key in \p Err when non-null.
bool parseAllocatorOptions(const std::string &Text, AllocatorOptions &Out,
                           std::string *Err = nullptr);

// Named configurations used by the reproduction experiments. ------------

/// The base Chaitin-style model of §3.1.
AllocatorOptions baseChaitinOptions();
/// Briggs optimistic coloring on the base cost model (§8).
AllocatorOptions optimisticOptions();
/// Improved Chaitin-style coloring with any subset of the enhancements.
AllocatorOptions improvedOptions(bool StorageClass = true,
                                 bool BenefitSimplify = true,
                                 bool PreferenceDecision = true);
/// Improved Chaitin-style + optimistic simplification (Fig. 9 hybrid).
AllocatorOptions improvedOptimisticOptions();
/// Priority-based coloring (§9) with the given color ordering.
AllocatorOptions priorityOptions(
    PriorityOrdering Ordering = PriorityOrdering::FullSort);
/// The CBH model (§10).
AllocatorOptions cbhOptions();

} // namespace ccra

#endif // CCRA_REGALLOC_ALLOCATOROPTIONS_H
