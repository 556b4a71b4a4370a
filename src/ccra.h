//===- ccra.h - Umbrella header for the CCRA library ------------*- C++ -*-===//
///
/// \file
/// Single-include public API for the call-cost directed register
/// allocation library. Pulls in everything an application needs to build
/// or load a program, assemble an engine, allocate, and inspect results:
///
/// \code
///   #include "ccra.h"
///
///   ccra::Telemetry T;
///   ccra::AllocationEngine Engine =
///       ccra::EngineBuilder(ccra::RegisterConfig(9, 7, 3, 3))
///           .options(ccra::improvedOptions())
///           .jobs(0) // one job per hardware thread
///           .telemetry(&T)
///           .build();
///   ccra::ModuleAllocationResult R = Engine.allocateModule(M, Freq);
///   T.snapshot().writeJson(std::cout);
/// \endcode
///
/// Internal layers (regalloc/ passes, analysis/ internals beyond
/// Frequency) stay behind their own headers; include them directly when
/// extending the allocator itself.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_CCRA_H
#define CCRA_CCRA_H

// Program representation: build, parse, print, clone, verify.
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"

// Execution-frequency estimation (profile-derived or static) and the
// shared analysis cache grids use to compute each analysis once.
#include "analysis/AnalysisCache.h"
#include "analysis/Frequency.h"

// Target model: register banks, caller/callee-save split, named configs.
#include "target/MachineDescription.h"

// The engine and its construction API.
#include "core/AllocatorFactory.h"
#include "core/EngineBuilder.h"
#include "regalloc/AllocationEngine.h"

// Observability and parallel execution support.
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

// SourceAllocation, the one allocation entry point the tools share, and
// the experiment driver: one evaluation grid point per run.
#include "harness/Experiment.h"

#endif // CCRA_CCRA_H
