//===- workloads/SpecProxies.h - SPEC92 proxy programs ----------*- C++ -*-===//
///
/// \file
/// Fourteen deterministic synthetic programs standing in for the SPEC92
/// binaries the paper evaluates (alvinn, compress, doduc, ear, eqntott,
/// espresso, fpppp, gcc, li, matrix300, nasa7, sc, spice, tomcatv). The
/// actual SPEC92 sources/binaries and the cmcc compiler are unavailable, so
/// each proxy encodes the *shape* properties the paper attributes to that
/// program — the properties its experiments hinge on:
///
/// - eqntott/ear: hot, frequently invoked functions whose long-lived values
///   cross calls sitting on rarely executed paths. The base allocator's
///   "contains a call => prefer callee-save" rule buys callee-save
///   save/restores at full entry frequency where a caller-save register
///   would cost almost nothing (improvement factors of tens, §7).
/// - li/sc/matrix300: live ranges for which *memory* beats both register
///   kinds, or CBH-starved crossing ranges — only storage-class analysis
///   (spilling the wrong-kind residents) helps.
/// - eqntott/espresso/compress/spice/fpppp/doduc: callee-save registers are
///   not contended enough for the preference decision to matter.
/// - tomcatv: one big loop nest, no calls — all call-cost machinery is
///   moot and every ratio is 1.0.
/// - fpppp: huge straight-line blocks of staggered floating-point live
///   ranges (high degree, low clique number) — the structure where
///   optimistic coloring beats pessimistic spilling at small register
///   counts (§8, Figure 9).
///
/// Every proxy is deterministic: same name -> bit-identical module.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_WORKLOADS_SPECPROXIES_H
#define CCRA_WORKLOADS_SPECPROXIES_H

#include "ir/Module.h"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace ccra {

/// Names of all proxy programs, in the paper's listing order.
const std::vector<std::string> &specProxyNames();

/// Builds the named proxy. Asserts on unknown names (see specProxyNames()).
std::unique_ptr<Module> buildSpecProxy(const std::string &Name);

/// Builds every proxy.
std::vector<std::pair<std::string, std::unique_ptr<Module>>>
buildAllSpecProxies();

/// The command-line tools' program argument: a proxy name, an IR file, or
/// "-" for stdin. A file is parsed and verified; null, with the diagnostics
/// written to \p Diag, when it cannot be opened, parsed or verified.
std::unique_ptr<Module> loadProgram(const std::string &Input,
                                    std::ostream &Diag);

} // namespace ccra

#endif // CCRA_WORKLOADS_SPECPROXIES_H
