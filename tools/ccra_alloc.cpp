//===- tools/ccra_alloc.cpp - Command-line register allocator -------------===//
//
// The library as a command-line tool: read a program (a .ccra IR file, "-"
// for stdin, or the name of a built-in SPEC proxy), run a chosen register
// allocator under a chosen register configuration, and print the allocated
// code and/or the cost breakdown.
//
//   ccra_alloc [options] <input>
//     <input>                 IR file path, '-' (stdin), or a proxy name
//                             (eqntott, ear, li, ... — see --list)
//     --allocator=<name>      base | optimistic | improved | improved-opt |
//                             priority | cbh              (default improved)
//     --config=Ri,Rf,Ei,Ef    register configuration      (default 9,7,3,3)
//     --static                use static frequency estimates (default:
//                             profile-truth probabilities)
//     --jobs=N                allocate N functions concurrently (default 1;
//                             0 = one per hardware thread; same results at
//                             any setting)
//     --emit-ir               print the allocated module (with spill and
//                             save/restore code)
//     --locations             print every virtual register's location
//     --telemetry[=json|csv]  print allocation telemetry (counters and
//                             per-phase timers) to stderr
//     --list                  list built-in proxy programs
//
// Examples:
//   ccra_alloc eqntott
//   ccra_alloc --allocator=base --config=6,4,0,0 --emit-ir program.ccra
//   ccra_alloc --jobs=0 --telemetry=json li
//   build/examples/quickstart | ccra_alloc -          # (not valid IR; demo)
//
//===----------------------------------------------------------------------===//

#include "ccra.h"
#include "support/BuildInfo.h"
#include "workloads/SpecProxies.h"

#include <cstdio>
#include <iostream>

using namespace ccra;

namespace {

struct CliOptions {
  std::string Input;
  std::string Allocator = "improved";
  RegisterConfig Config = RegisterConfig(9, 7, 3, 3);
  FrequencyMode Mode = FrequencyMode::Profile;
  unsigned Jobs = 1;
  bool EmitIr = false;
  bool Locations = false;
  bool List = false;
  bool Version = false;
  bool EmitTelemetry = false;
  std::string TelemetryFormat = "json";
};

void printUsage() {
  std::cerr << "usage: ccra_alloc [--allocator=NAME] [--config=Ri,Rf,Ei,Ef]\n"
               "                  [--static] [--jobs=N] [--emit-ir] "
               "[--locations]\n"
               "                  [--telemetry[=json|csv]] [--list] <input>\n"
               "  input: IR file, '-' for stdin, or a proxy name "
               "(try --list)\n";
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list") {
      Opts.List = true;
    } else if (Arg == "--version") {
      Opts.Version = true;
    } else if (Arg == "--static") {
      Opts.Mode = FrequencyMode::Static;
    } else if (Arg == "--emit-ir") {
      Opts.EmitIr = true;
    } else if (Arg == "--locations") {
      Opts.Locations = true;
    } else if (Arg == "--telemetry") {
      Opts.EmitTelemetry = true;
    } else if (Arg.rfind("--telemetry=", 0) == 0) {
      Opts.EmitTelemetry = true;
      Opts.TelemetryFormat = Arg.substr(12);
      if (Opts.TelemetryFormat != "json" && Opts.TelemetryFormat != "csv") {
        std::cerr << "bad --telemetry, expected json or csv\n";
        return false;
      }
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (std::sscanf(Arg.c_str() + 7, "%u", &Opts.Jobs) != 1) {
        std::cerr << "bad --jobs, expected a number\n";
        return false;
      }
    } else if (Arg.rfind("--allocator=", 0) == 0) {
      Opts.Allocator = Arg.substr(12);
    } else if (Arg.rfind("--config=", 0) == 0) {
      std::string Err;
      if (!parseRegisterConfig(Arg.substr(9), Opts.Config, &Err)) {
        std::cerr << "--config: " << Err << '\n';
        return false;
      }
    } else if (Arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << Arg << '\n';
      return false;
    } else if (Opts.Input.empty()) {
      Opts.Input = Arg;
    } else {
      std::cerr << "multiple inputs given\n";
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    printUsage();
    return 1;
  }
  if (Cli.Version) {
    std::cout << buildInfoString() << '\n';
    return 0;
  }
  if (Cli.List) {
    for (const std::string &Name : specProxyNames())
      std::cout << Name << '\n';
    return 0;
  }
  if (Cli.Input.empty()) {
    printUsage();
    return 1;
  }

  AllocatorOptions AllocOpts;
  if (!allocatorOptionsFor(Cli.Allocator, AllocOpts)) {
    std::cerr << "unknown allocator '" << Cli.Allocator << "'\n";
    return 1;
  }

  std::unique_ptr<Module> M = loadProgram(Cli.Input, std::cerr);
  if (!M)
    return 1;

  Telemetry T;
  AllocationOutcome Outcome =
      SourceAllocation(*M).run(Cli.Config, AllocOpts, Cli.Mode, Cli.Jobs, T);
  if (!Outcome.ok()) {
    std::cerr << "ccra_alloc: " << Outcome.Diagnostic << '\n';
    return 1;
  }
  const ModuleAllocationResult &Result = Outcome.Result;

  if (Cli.EmitIr)
    printModule(*M, std::cout);

  if (Cli.Locations) {
    for (const auto &F : M->functions()) {
      if (F->isDeclaration())
        continue;
      const FunctionAllocation &FA = Result.PerFunction.at(F.get());
      std::cout << "@" << F->getName() << ":\n";
      for (unsigned V = 0; V < F->numVRegs(); ++V) {
        if (V >= FA.VRegLocations.size() || !FA.VRegLocations[V])
          continue;
        const Location &Loc = *FA.VRegLocations[V];
        std::cout << "  " << formatVReg(*F, VirtReg(V)) << " -> "
                  << (Loc.isRegister() ? formatPhysReg(Loc.Reg)
                                       : std::string("memory"))
                  << '\n';
      }
    }
  }

  std::cout << "allocator=" << AllocOpts.describe()
            << " config=" << Cli.Config.label() << " freq="
            << frequencyModeName(Cli.Mode) << '\n';
  printCostTable(*M, Result, std::cout);

  if (Cli.EmitTelemetry) {
    TelemetrySnapshot Snap = T.snapshot();
    if (Cli.TelemetryFormat == "csv")
      Snap.writeCsv(std::cerr);
    else
      Snap.writeJson(std::cerr);
  }
  return 0;
}
