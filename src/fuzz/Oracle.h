//===- fuzz/Oracle.h - Differential allocation-soundness oracles -*- C++ -*-===//
///
/// \file
/// The oracle lattice: one fuzz input (a verified module) is allocated once
/// per *leg* — a named allocator configuration — and the results are
/// cross-checked three ways:
///
/// - **Equivalence oracles.** The execution choices left in the engine
///   (parallel vs. serial module allocation, cache-seeded baseline
///   liveness, replayed round-1 coalescing) document a
///   bit-identical-results contract. Legs `jobs-parallel`,
///   `liveness-seeded` and `coalesce-replayed` (which replays what
///   `liveness-seeded` recorded in the shared cache) are diffed against
///   the `baseline` leg: cost breakdowns and per-function counters must
///   match exactly, every vreg must land in the same location, and the
///   printed allocated IR must be byte-identical.
///
/// - **Component check.** The engine runs one path through coalescing,
///   graph construction and simplification; the references it replaced
///   are compared here, on every function body, against that path:
///   incremental vs. recompute-every-pass coalescing (classes, deleted
///   copies, final liveness, live ranges, graph edges), the dense and the
///   sparse interference graph vs. the register-granularity reference
///   scan, the worklist vs. the O(V^2) reference
///   simplifier (stack and spill set), for Chaitin's simplification and
///   for CBH's. After every spill round it also checks the invariant the
///   engine's seeded coalescer trusts: the previous round's liveness,
///   patched by spill code insertion (spilled registers erased, universe
///   grown for the reload temporaries), equals a fresh Liveness::compute
///   of the rewritten function ("spill-liveness"). Findings are reported
///   under the leg name "component".
///
/// - **Soundness oracles.** Every leg — including configurations with
///   legitimately different results, like the two §4 callee-save cost
///   models and the other allocator kinds — must produce an allocation
///   that passes verifyAllocation (run in report-only mode so a violation
///   is a finding, not an abort), keeps the module IR-verified, yields
///   finite non-negative costs, and reconciles: the §3 cost measured off
///   the materialized overhead instructions must equal the analytically
///   derived cost. A register configuration too small for the module
///   (SourceAllocation's diagnostic) is one "uncolorable" finding, under
///   the first leg, and ends the lattice.
///
/// Adding the next engine optimization = adding one OracleLeg, or one pair
/// to the component check (see DESIGN.md "The oracle lattice").
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_FUZZ_ORACLE_H
#define CCRA_FUZZ_ORACLE_H

#include "analysis/Frequency.h"
#include "regalloc/AllocatorOptions.h"
#include "regalloc/CBHAllocator.h"
#include "regalloc/Simplifier.h"
#include "target/MachineDescription.h"

#include <functional>
#include <string>
#include <vector>

namespace ccra {

class Module;

/// One point of the lattice: a named configuration plus the contract it is
/// held to (identical-to-baseline, or soundness-only).
struct OracleLeg {
  std::string Name;
  AllocatorOptions Opts;
  bool ExpectIdentical = false; ///< diff against the baseline leg
  bool SeedFromCache = false;   ///< seed round-1 liveness from an analysis
                                ///< cache computed on the source module
};

/// The full lattice, baseline first. \p ParallelJobs sizes the parallel
/// leg; \p SoundnessSweep includes the different-results legs (callee cost
/// models, the other allocator kinds).
std::vector<OracleLeg> oracleLattice(unsigned ParallelJobs = 4,
                                     bool SoundnessSweep = true);

struct OracleOptions {
  RegisterConfig Config = RegisterConfig(8, 6, 2, 2);
  FrequencyMode Mode = FrequencyMode::Profile;
  unsigned ParallelJobs = 4;
  /// Include the soundness-only legs (other cost models / allocators).
  bool SoundnessSweep = true;
  /// Test-only fault injection: when set and true for the input module, the
  /// lattice reports a synthetic "injected-fault" mismatch. Exists so the
  /// shrinker's convergence is itself testable (tests/FuzzTest.cpp).
  std::function<bool(const Module &)> InjectedFault;
};

struct OracleFailure {
  std::string Leg;    ///< which lattice leg (or "injected-fault")
  std::string Oracle; ///< which check tripped ("ir-diff", "verify", ...)
  std::string Detail;
};

struct OracleReport {
  std::vector<OracleFailure> Failures;
  unsigned LegsRun = 0;
  /// Function bodies the component check compared.
  unsigned ComponentChecks = 0;
  /// Spill rounds whose patched liveness the component check compared
  /// against a fresh dataflow run ("spill-liveness").
  unsigned SpillLivenessChecks = 0;
  bool ok() const { return Failures.empty(); }
  /// One line per failure, for logs and reproducer headers.
  std::vector<std::string> lines() const;
};

/// Runs \p M (never mutated: every leg allocates a private clone) through
/// the lattice under \p Opts.
OracleReport runOracleLattice(const Module &M, const OracleOptions &Opts);

/// The O(V^2) rescan-everything simplifier that the worklist
/// Simplifier::run replaced, kept as its oracle: each step takes the
/// unconstrained node with the smallest key (lowest index on ties), else
/// the smallest spillCost/degree. Byte-identical to Simplifier::run on
/// every input; the component check, tests/SimplifierTest.cpp and
/// bench/perf_scaling compare against it.
SimplifyResult referenceSimplify(const AllocationContext &Ctx,
                                 bool Optimistic,
                                 const Simplifier::KeyFn &Key = nullptr);

/// The register-granularity interference scan that InterferenceGraph's
/// range-level scan replaced, kept as its oracle: a live range is live
/// while any member register is (a per-range count of live members), so
/// it needs no class-root precondition. Builds the graph one addEdge per
/// pair and finalizes it. Edge for edge identical to
/// InterferenceGraph::build whenever that precondition holds; the
/// component check and tests/InterferenceTest.cpp compare against it.
InterferenceGraph referenceInterference(const Function &F,
                                        const Liveness &LV,
                                        const LiveRangeSet &LRS);

/// The O(V^2) CBH simplification that the worklist CBHAllocator::simplify
/// replaced, kept as its oracle: each step takes the lowest-index active
/// node whose effective degree is below its bank's register count, else
/// spills the cheapest ordinary range or unlocks a callee-save register.
/// Identical to CBHAllocator::simplify on every input (stack, spills,
/// blocked pushes and unlocks); the component check and
/// tests/SimplifierTest.cpp compare against it.
CBHSimplifyResult referenceCBHSimplify(const AllocationContext &Ctx);

} // namespace ccra

#endif // CCRA_FUZZ_ORACLE_H
