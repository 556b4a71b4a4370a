//===- benchmark/Population.cpp - Request populations and references -----===//

#include "Bench.h"

#include "core/EngineBuilder.h"
#include "frontend/Frontend.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/Rng.h"
#include "workloads/FuzzGen.h"
#include "workloads/SpecProxies.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <thread>

using namespace ccra;

namespace bench {

const std::vector<AllocatorOptions> &allocatorArms() {
  static const std::vector<AllocatorOptions> Arms = {
      improvedOptions(), baseChaitinOptions(), cbhOptions(),
      priorityOptions(), improvedOptimisticOptions()};
  return Arms;
}

std::vector<CSource> readCorpusSources(const std::string &Root) {
  std::vector<std::string> Paths;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(
           Root + "/examples/corpus_c", EC))
    if (Entry.path().extension() == ".c")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  std::vector<CSource> Sources;
  for (const std::string &Path : Paths) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    Sources.push_back({Frontend::moduleNameForPath(Path), SS.str()});
  }
  return Sources;
}

std::vector<Program> corpusPrograms(const std::vector<CSource> &Sources,
                                    double &CompileSeconds) {
  std::vector<Program> Programs;
  auto Start = Clock::now();
  for (const CSource &S : Sources) {
    CompileResult CR = Frontend::compile(S.Text, S.Name);
    if (!CR.ok())
      return {};
    Programs.push_back({"", "", std::move(CR.M)});
  }
  CompileSeconds = secondsSince(Start);
  for (const std::string &Name : specProxyNames())
    Programs.push_back({"", "", buildSpecProxy(Name)});
  for (Program &P : Programs)
    printModule(*P.M, P.Text);
  return Programs;
}

std::vector<Request> corpusRequests(std::size_t NumPrograms,
                                    unsigned Stride) {
  std::vector<Request> Requests;
  std::size_t Index = 0;
  for (std::size_t P = 0; P < NumPrograms; ++P)
    for (const RegisterConfig &Config : standardConfigSweep())
      for (const AllocatorOptions &Options : allocatorArms())
        for (FrequencyMode Mode :
             {FrequencyMode::Profile, FrequencyMode::Static})
          if (Index++ % Stride == 0)
            Requests.push_back(
                {static_cast<std::uint32_t>(P), Config, Options, Mode});
  return Requests;
}

Population fuzzPopulation(unsigned Count, unsigned SizeScale) {
  static const FuzzProfile Profiles[] = {
      FuzzProfile::Mixed, FuzzProfile::CallDense, FuzzProfile::HighDegree,
      FuzzProfile::PathologicalLive};
  // Modules outside this band are redrawn: FuzzGen's sizes at one scale
  // span 35-400 KB, and per-request cost spans 20x with them.
  constexpr std::size_t MinBytes = 140 << 10, MaxBytes = 415 << 10;
  const std::vector<RegisterConfig> Configs = standardConfigSweep();
  Rng R(0xf022c0de5eedull);
  Population Pop;
  for (unsigned I = 0; I < Count; ++I) {
    FuzzGenParams Params;
    Params.Profile = Profiles[I % 4];
    Params.SizeScale = SizeScale;
    Program P;
    std::unique_ptr<Module> M;
    do {
      Params.Seed = R.next();
      M = generateFuzzModule(Params);
      P.Text.clear();
      printModule(*M, P.Text);
    } while (P.Text.size() < MinBytes || P.Text.size() > MaxBytes);
    encodeModuleBinary(*M, P.Binary);
    Pop.Programs.push_back(std::move(P));

    Request Req;
    Req.Program = I;
    Req.Options = allocatorArms()[R.nextBelow(allocatorArms().size())];
    Req.Config = Configs[R.nextBelow(Configs.size())];
    Req.Mode = R.nextBool() ? FrequencyMode::Profile : FrequencyMode::Static;
    Pop.Requests.push_back(Req);
  }
  return Pop;
}

std::size_t irHash(const std::string &AllocatedIr) {
  return std::hash<std::string_view>()(AllocatedIr);
}

Expected allocateInProcess(const Program &P, const Request &R) {
  ParseResult PR = parseModule(P.Text);
  Expected E;
  if (!PR.ok())
    return E;
  FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, R.Mode);
  AllocationEngine Engine = EngineBuilder(R.Config).options(R.Options).build();
  E.Totals = Engine.allocateModule(*PR.M, Freq).Totals;
  std::string Ir;
  printModule(*PR.M, Ir);
  E.IrHash = irHash(Ir);
  return E;
}

std::vector<Expected> allocateAll(const Population &Pop,
                                  const std::vector<std::uint32_t> &Which,
                                  unsigned Threads) {
  std::vector<Expected> Out(Pop.Requests.size());
  std::atomic<std::size_t> Next{0};
  auto Work = [&] {
    for (std::size_t I; (I = Next.fetch_add(1)) < Which.size();) {
      const Request &R = Pop.Requests[Which[I]];
      Out[Which[I]] = allocateInProcess(Pop.Programs[R.Program], R);
    }
  };
  std::vector<std::thread> Workers;
  for (unsigned T = 1; T < Threads; ++T)
    Workers.emplace_back(Work);
  Work();
  for (std::thread &W : Workers)
    W.join();
  return Out;
}

} // namespace bench
