//===- tools/ccra_cc.cpp - C-subset compiler driver -----------------------===//
//
// Compiles C-subset source files (see DESIGN.md "The C frontend") into
// ccra IR, and optionally runs the register allocator on the result —
// real programs feeding the same pipeline the synthetic workloads use.
//
//   ccra_cc [options] <input.c>...
//     <input.c>...            one or more C source files ('-' for stdin)
//     --emit-ir               print the lowered IR module(s) (default when
//                             no other action is chosen)
//     --alloc                 run the register allocator and print the
//                             per-function cost table
//     --allocator=<name>      base | optimistic | improved | improved-opt |
//                             priority | cbh              (default improved)
//     --options=<key>         AllocatorOptions canonical key (the cache /
//                             wire form; overrides --allocator)
//     --config=Ri,Rf,Ei,Ef    register configuration      (default 9,7,3,3)
//     --static                use static frequency estimates
//     --emit-corpus=<dir>     write each module to <dir>/cc-<name>.ccra
//                             with a provenance header naming the source
//     --check-corpus          compile-and-verify gate (CI): every input
//                             must compile, IR-verify, and round-trip
//                             through the printer/parser byte-exactly
//
// Every emitted module is verifier-clean by construction; --check-corpus
// re-checks that claim from the outside and is wired into check.sh and
// every CI leg.
//
// Examples:
//   ccra_cc --emit-ir examples/corpus_c/fib.c
//   ccra_cc --alloc --allocator=base --config=6,4,0,0 examples/corpus_c/*.c
//   ccra_cc --check-corpus examples/corpus_c/*.c
//
//===----------------------------------------------------------------------===//

#include "ccra.h"
#include "frontend/Frontend.h"
#include "fuzz/Corpus.h"
#include "support/BuildInfo.h"

#include <iostream>
#include <sstream>
#include <vector>

using namespace ccra;

namespace {

struct CliOptions {
  std::vector<std::string> Inputs;
  std::string Allocator = "improved";
  std::string OptionsKey;
  RegisterConfig Config = RegisterConfig(9, 7, 3, 3);
  FrequencyMode Mode = FrequencyMode::Profile;
  bool EmitIr = false;
  bool Alloc = false;
  bool CheckCorpus = false;
  std::string EmitCorpusDir;
  bool Version = false;
};

void printUsage() {
  std::cerr << "usage: ccra_cc [--emit-ir] [--alloc] [--allocator=NAME]\n"
               "               [--options=KEY] [--config=Ri,Rf,Ei,Ef] "
               "[--static]\n"
               "               [--emit-corpus=DIR] [--check-corpus] "
               "<input.c>...\n";
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--version") {
      Opts.Version = true;
    } else if (Arg == "--emit-ir") {
      Opts.EmitIr = true;
    } else if (Arg == "--alloc") {
      Opts.Alloc = true;
    } else if (Arg == "--check-corpus") {
      Opts.CheckCorpus = true;
    } else if (Arg == "--static") {
      Opts.Mode = FrequencyMode::Static;
    } else if (Arg.rfind("--emit-corpus=", 0) == 0) {
      Opts.EmitCorpusDir = Arg.substr(14);
      if (Opts.EmitCorpusDir.empty()) {
        std::cerr << "bad --emit-corpus, expected a directory\n";
        return false;
      }
    } else if (Arg.rfind("--allocator=", 0) == 0) {
      Opts.Allocator = Arg.substr(12);
    } else if (Arg.rfind("--options=", 0) == 0) {
      Opts.OptionsKey = Arg.substr(10);
    } else if (Arg.rfind("--config=", 0) == 0) {
      std::string Err;
      if (!parseRegisterConfig(Arg.substr(9), Opts.Config, &Err)) {
        std::cerr << "--config: " << Err << '\n';
        return false;
      }
    } else if (Arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << Arg << '\n';
      return false;
    } else {
      Opts.Inputs.push_back(Arg);
    }
  }
  return true;
}

/// --options (a canonical AllocatorOptions key) overrides --allocator.
bool allocatorOptionsFor(const CliOptions &Cli, AllocatorOptions &Opts) {
  if (Cli.OptionsKey.empty()) {
    if (ccra::allocatorOptionsFor(Cli.Allocator, Opts))
      return true;
    std::cerr << "unknown allocator '" << Cli.Allocator << "'\n";
    return false;
  }
  std::string Error;
  if (parseAllocatorOptions(Cli.OptionsKey, Opts, &Error))
    return true;
  std::cerr << "bad --options: " << Error << '\n';
  return false;
}

CompileResult compileInput(const std::string &Input) {
  if (Input != "-")
    return Frontend::compileFile(Input);
  std::ostringstream Buffer;
  Buffer << std::cin.rdbuf();
  return Frontend::compile(Buffer.str(), "stdin");
}

void reportDiagnostics(const std::string &Input,
                       const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    std::cerr << Input << ": " << D.render() << '\n';
}

/// The post-compile gate shared by every mode: the module must IR-verify
/// and must survive print -> parse -> print with identical bytes.
bool checkModule(const std::string &Input, const Module &M) {
  std::vector<std::string> Errors;
  if (!verifyModule(M, &Errors)) {
    for (const std::string &E : Errors)
      std::cerr << Input << ": verifier: " << E << '\n';
    return false;
  }
  std::string Printed;
  printModule(M, Printed);
  ParseResult Reparsed = parseModule(Printed);
  if (!Reparsed.ok()) {
    for (const std::string &E : Reparsed.Errors)
      std::cerr << Input << ": round-trip parse: " << E << '\n';
    return false;
  }
  std::string Reprinted;
  printModule(*Reparsed.M, Reprinted);
  if (Printed != Reprinted) {
    std::cerr << Input << ": round-trip is not byte-identical\n";
    return false;
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
  if (Cli.Inputs.empty()) {
    printUsage();
    return 1;
  }
  if (!Cli.EmitIr && !Cli.Alloc && !Cli.CheckCorpus &&
      Cli.EmitCorpusDir.empty())
    Cli.EmitIr = true;

  AllocatorOptions AllocOpts;
  if (Cli.Alloc && !allocatorOptionsFor(Cli, AllocOpts))
    return 1;

  bool AllOk = true;
  for (const std::string &Input : Cli.Inputs) {
    CompileResult Compiled = compileInput(Input);
    if (!Compiled.ok()) {
      reportDiagnostics(Input, Compiled.Diags);
      AllOk = false;
      continue;
    }
    Module &M = *Compiled.M;
    if (!checkModule(Input, M)) {
      AllOk = false;
      continue;
    }

    if (Cli.CheckCorpus) {
      unsigned Blocks = 0;
      for (const auto &F : M.functions())
        Blocks += F->numBlocks();
      std::cout << "ok " << M.getName() << " functions="
                << M.functions().size() << " blocks=" << Blocks << '\n';
    }
    if (!Cli.EmitCorpusDir.empty()) {
      std::vector<std::string> Header = {
          "ccra_cc corpus entry",
          "source: " + Input,
          "config: " + std::to_string(Cli.Config.IntCallerSave) + "," +
              std::to_string(Cli.Config.FloatCallerSave) + "," +
              std::to_string(Cli.Config.IntCalleeSave) + "," +
              std::to_string(Cli.Config.FloatCalleeSave),
      };
      std::string Path = writeCorpusFile(M, Cli.EmitCorpusDir,
                                         "cc-" + M.getName(), Header);
      if (Path.empty()) {
        std::cerr << Input << ": cannot write corpus file under '"
                  << Cli.EmitCorpusDir << "'\n";
        AllOk = false;
        continue;
      }
      std::cout << "wrote " << Path << '\n';
    }
    if (Cli.EmitIr)
      printModule(M, std::cout);
    if (Cli.Alloc) {
      AllocationOutcome Outcome = SourceAllocation(M).run(
          Cli.Config, AllocOpts, Cli.Mode, AllocOpts.Jobs, nullptr);
      if (!Outcome.ok()) {
        std::cerr << Input << ": " << Outcome.Diagnostic << '\n';
        AllOk = false;
        continue;
      }
      std::cout << "module=" << M.getName()
                << " allocator=" << AllocOpts.describe()
                << " config=" << Cli.Config.label()
                << " freq=" << frequencyModeName(Cli.Mode) << '\n';
      printCostTable(M, Outcome.Result, std::cout);
    }
  }
  return AllOk ? 0 : 1;
}
