//===- tools/ccra_client.cpp - Allocation service client ------------------===//
//
// Command-line client for ccra_serve: submit one allocation, fetch server
// stats, or drive the mixed smoke burst used by CI.
//
//   ccra_client [--unix=PATH | --port=N] [--timeout=MS] <command> [args]
//
//   commands:
//     alloc [--allocator=NAME] [--config=Ri,Rf,Ei,Ef] [--static]
//           [--deadline-ms=N] [--emit-ir] [--wire=v1|v2] <input>
//        Allocate one module (IR file, '-' for stdin, or a built-in proxy
//        name) on the server; print the cost breakdown (and the allocated
//        IR with --emit-ir). --wire=v2 ships the module in the binary
//        codec (an AllocRequestV2 frame); responses are identical either
//        way.
//     stats
//        Print the server-wide telemetry snapshot (JSON).
//     burst [--requests=N] [--clients=N] [--malformed-every=N]
//           [--deadline-every=N] [--zipf] [--wire=v2]
//        CI smoke: N requests (default 200) across C concurrent client
//        connections (default 4), cycling 56 cases (each built-in proxy
//        under four allocators), interleaving malformed frames (every
//        Nth request, default 17, opens a throwaway connection and writes
//        in turn garbage, a torn frame, a well-formed request whose
//        options carry a non-key field, and one whose module has an
//        instruction after a terminator — the last two must be answered
//        Error "malformed") and tiny deadlines (default 31). Every successful
//        response is verified BIT-IDENTICAL to an in-process allocation of
//        the same module/options. Exits non-zero on any mismatch, crash,
//        or transport error on a valid request. From the server's STATS
//        the burst then requires, against a server run with its caches
//        off, serve.batch <= 1.5x allocate_total (the response path may
//        not cost more than half the allocation work again) and, when the
//        hello advertises a cache, a nonzero cache.module_hits: a proxy's
//        second allocator is a response-cache miss on a module the tier
//        already holds. --zipf is the cache smoke: cases are sampled from
//        a Zipfian distribution (skew 1.1) instead of round-robin, and
//        against a cache-enabled server the burst additionally requires a
//        nonzero cache hit count (the bit-identity check above then covers
//        cached responses too). A server run with its caches off skips
//        both cache assertions; one run with its caches on skips the
//        budget.
//     --version
//        Print build info and exit.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "service/Client.h"
#include "support/BuildInfo.h"
#include "support/Rng.h"
#include "workloads/SpecProxies.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace ccra;

namespace {

/// Budget of serve.batch (analyses, engine setup, rendering, cache
/// bookkeeping, encoding) over the engine's own allocate_total. It is
/// checked only with the server's caches off, where every valid request is
/// allocated: with caches on a burst allocates each of its 56 cases once,
/// ~15 ms of engine work in Release, and one scheduling stall of a few ms
/// moves the ratio past any useful budget. On a shared 4-vCPU host
/// cache-off bursts of 2,000 requests read 1.35-1.40 (Release), 1.29-1.31
/// (Debug) and 1.25 (Debug ASan+UBSan).
constexpr double MaxBatchOverAllocate = 1.5;

struct Endpoint {
  std::string UnixPath;
  int Port = -1;
  int TimeoutMs = 30000;

  bool connect(ServiceClient &C, std::string *Err) const {
    C.setTimeoutMs(TimeoutMs);
    if (!UnixPath.empty())
      return C.connectUnix(UnixPath, Err);
    return C.connectTcp(Port, Err);
  }
};

void printUsage() {
  std::cerr
      << "usage: ccra_client [--unix=PATH | --port=N] [--timeout=MS] "
         "<command>\n"
         "  commands: alloc [opts] <input> | stats | burst [opts] | "
         "--version\n"
         "  alloc opts: --allocator=NAME --config=Ri,Rf,Ei,Ef --static\n"
         "              --deadline-ms=N --emit-ir --wire=v1|v2\n"
         "  burst opts: --requests=N --clients=N --malformed-every=N\n"
         "              --deadline-every=N --zipf --wire=v1|v2\n";
}

std::string moduleText(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

/// The in-process half of the bit-identity contract: allocates \p
/// Request's module in place through SourceAllocation, as the server's
/// workers allocate their clones, and returns the allocated IR and cost
/// totals that a response to the request must match. False when the
/// module does not parse or the configuration cannot color it.
bool expectedAllocation(const AllocRequest &Request, std::string &IrOut,
                        CostBreakdown &TotalsOut) {
  ParseResult PR = parseModule(Request.ModuleText);
  if (!PR.ok())
    return false;
  Telemetry T;
  AllocationOutcome Outcome = SourceAllocation(*PR.M).run(
      Request.Config, Request.Options, Request.Mode, Request.Options.Jobs, T);
  if (!Outcome.ok())
    return false;
  IrOut = moduleText(*PR.M);
  TotalsOut = Outcome.Result.Totals;
  return true;
}

int runAlloc(const Endpoint &EP, int Argc, char **Argv, int First) {
  AllocRequest Request;
  std::string Allocator = "improved";
  std::string Input;
  bool EmitIr = false;
  bool WireV2 = false;
  for (int I = First; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--static") {
      Request.Mode = FrequencyMode::Static;
    } else if (Arg == "--emit-ir") {
      EmitIr = true;
    } else if (Arg == "--wire=v1") {
      WireV2 = false;
    } else if (Arg == "--wire=v2") {
      WireV2 = true;
    } else if (Arg.rfind("--allocator=", 0) == 0) {
      Allocator = Arg.substr(12);
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (std::sscanf(Arg.c_str() + 14, "%u", &Request.DeadlineMs) != 1) {
        printUsage();
        return 2;
      }
    } else if (Arg.rfind("--config=", 0) == 0) {
      std::string Err;
      if (!parseRegisterConfig(Arg.substr(9), Request.Config, &Err)) {
        std::cerr << "--config: " << Err << '\n';
        printUsage();
        return 2;
      }
    } else if (Arg.rfind("--", 0) == 0 || !Input.empty()) {
      printUsage();
      return 2;
    } else {
      Input = Arg;
    }
  }
  if (Input.empty() || !allocatorOptionsFor(Allocator, Request.Options)) {
    printUsage();
    return 2;
  }
  std::unique_ptr<Module> M = loadProgram(Input, std::cerr);
  if (!M)
    return 1;
  Request.ModuleText = moduleText(*M);

  ServiceClient Client;
  std::string Err;
  if (!EP.connect(Client, &Err)) {
    std::cerr << "ccra_client: " << Err << '\n';
    return 1;
  }
  if (WireV2) {
    if (!encodeModuleBinary(*M, Request.ModuleBinary, &Err)) {
      std::cerr << "ccra_client: cannot binary-encode module: " << Err
                << "; falling back to textual v1\n";
      Request.ModuleBinary.clear();
    } else {
      Request.ModuleText.clear();
    }
  }
  AllocResponse Response;
  ErrorResponse ServerError;
  RpcStatus Status = Client.allocate(Request, Response, ServerError, &Err);
  if (Status == RpcStatus::Shed) {
    std::cerr << "ccra_client: shed: " << ServerError.Message << '\n';
    return 3;
  }
  if (Status == RpcStatus::Rejected) {
    std::cerr << "ccra_client: server error [" << ServerError.Code << "] "
              << ServerError.Message << '\n';
    return 1;
  }
  if (Status != RpcStatus::Ok) {
    std::cerr << "ccra_client: " << Err << '\n';
    return 1;
  }

  std::cout << "total " << formatExactDouble(Response.Totals.total())
            << " (spill " << formatExactDouble(Response.Totals.Spill)
            << ", caller-save " << formatExactDouble(Response.Totals.CallerSave)
            << ", callee-save " << formatExactDouble(Response.Totals.CalleeSave)
            << ", shuffle " << formatExactDouble(Response.Totals.Shuffle)
            << ")\n";
  for (const FunctionSummary &F : Response.Functions)
    std::cout << "  " << F.Name << ": cost "
              << formatExactDouble(F.Costs.total()) << ", rounds " << F.Rounds
              << ", spilled " << F.SpilledRanges << '\n';
  if (EmitIr)
    std::cout << Response.AllocatedIr;
  return 0;
}

int runStats(const Endpoint &EP) {
  ServiceClient Client;
  std::string Err;
  if (!EP.connect(Client, &Err)) {
    std::cerr << "ccra_client: " << Err << '\n';
    return 1;
  }
  TelemetrySnapshot Snapshot;
  ErrorResponse ServerError;
  if (Client.stats(Snapshot, ServerError, &Err) != RpcStatus::Ok) {
    std::cerr << "ccra_client: " << Err << '\n';
    return 1;
  }
  std::cout << Snapshot.toJson() << '\n';
  return 0;
}

// --- burst: the CI smoke ------------------------------------------------

struct BurstOptions {
  unsigned Requests = 200;
  unsigned Clients = 4;
  unsigned MalformedEvery = 17;
  unsigned DeadlineEvery = 31;
  bool Zipf = false;
  /// Ship modules in the binary codec (AllocRequestV2); the bit-identity
  /// check is unchanged, so a v2 burst proves both ingestion paths produce
  /// the same bytes.
  bool WireV2 = false;
};

/// Cumulative Zipf(1.1) distribution over case ranks: Cdf[R] is the
/// probability of drawing a case of rank <= R. Rank 0 is the hottest.
std::vector<double> zipfCdf(std::size_t Count) {
  std::vector<double> Cdf;
  Cdf.reserve(Count);
  double Sum = 0;
  for (std::size_t R = 0; R < Count; ++R) {
    Sum += 1.0 / std::pow(static_cast<double>(R + 1), 1.1);
    Cdf.push_back(Sum);
  }
  for (double &V : Cdf)
    V /= Sum;
  return Cdf;
}

std::size_t sampleZipf(const std::vector<double> &Cdf, Rng &R) {
  double U = R.nextDouble();
  auto It = std::lower_bound(Cdf.begin(), Cdf.end(), U);
  if (It == Cdf.end())
    return Cdf.size() - 1;
  return static_cast<std::size_t>(It - Cdf.begin());
}

struct BurstTally {
  std::atomic<unsigned> Ok{0};
  std::atomic<unsigned> Shed{0};
  std::atomic<unsigned> Deadline{0};
  std::atomic<unsigned> MalformedAnswered{0};
  std::atomic<unsigned> Failures{0};
};

/// One precomputed request: what to send plus the bit-exact expectation.
struct BurstCase {
  AllocRequest Request; ///< textual form (ModuleText set)
  std::string ModuleBinary; ///< codec-v2 form of the same module
  std::string ExpectedIr;
  CostBreakdown ExpectedTotals;
};

std::string encodeGarbageTornFrame(unsigned Seed);
std::string encodeHostileFrame(bool BadOptions);

void burstWorker(const Endpoint &EP, const BurstOptions &Opts,
                 const std::vector<BurstCase> &Cases,
                 const std::vector<double> &ZipfTable, unsigned Worker,
                 BurstTally &Tally, std::mutex &LogMutex) {
  auto Fail = [&](const std::string &Msg) {
    std::lock_guard<std::mutex> Lock(LogMutex);
    std::cerr << "ccra_client: worker " << Worker << ": " << Msg << '\n';
    Tally.Failures.fetch_add(1);
  };
  // Deterministic per-worker stream: reruns replay the same sample path.
  Rng ZipfRng(0x5eedull + Worker);

  ServiceClient Client;
  std::string Err;
  if (!EP.connect(Client, &Err)) {
    Fail("connect: " + Err);
    return;
  }

  for (unsigned I = Worker; I < Opts.Requests; I += Opts.Clients) {
    if (Opts.MalformedEvery && I % Opts.MalformedEvery == 0) {
      // A malformed frame burns its own throwaway connection: the server
      // is expected to answer (or close on garbage or a torn header) and
      // keep serving everyone else. A hostile payload in a well-formed
      // frame must be answered with Error "malformed".
      ServiceClient Bad;
      if (!EP.connect(Bad, &Err)) {
        Fail("malformed-leg connect: " + Err);
        return;
      }
      unsigned Kind = (I / Opts.MalformedEvery) % 4;
      bool Torn = Kind == 1, Hostile = Kind >= 2;
      std::string Bytes =
          Kind == 0   ? std::string("\x13\x37not a frame at all", 19)
          : Torn      ? encodeGarbageTornFrame(I)
                      : encodeHostileFrame(/*BadOptions=*/Kind == 2);
      if (Bad.sendRawBytes(Bytes)) {
        // Half-close after a torn frame: the server sees EOF mid-frame and
        // answers at once instead of at its mid-frame read budget.
        if (Torn)
          Bad.shutdownWrite();
        Frame Resp;
        ErrorResponse E;
        bool Answered = Bad.readResponse(Resp) == FrameReadStatus::Ok;
        if (Answered)
          Tally.MalformedAnswered.fetch_add(1);
        if (Hostile && !(Answered && Resp.Type == FrameType::Error &&
                         parseError(Resp.Payload, E) &&
                         E.Code == "malformed"))
          Fail("request " + std::to_string(I) +
               ": hostile payload not answered with Error \"malformed\"");
      }
      Bad.close();
      continue;
    }

    const BurstCase &Case = ZipfTable.empty()
                                ? Cases[I % Cases.size()]
                                : Cases[sampleZipf(ZipfTable, ZipfRng)];
    AllocRequest Request = Case.Request;
    if (Opts.WireV2) {
      Request.ModuleBinary = Case.ModuleBinary;
      Request.ModuleText.clear();
    }
    bool TinyDeadline = Opts.DeadlineEvery && I % Opts.DeadlineEvery == 0;
    if (TinyDeadline)
      Request.DeadlineMs = 1;

    AllocResponse Response;
    ErrorResponse ServerError;
    RpcStatus Status = Client.allocate(Request, Response, ServerError, &Err);
    if (Status == RpcStatus::Shed) {
      Tally.Shed.fetch_add(1);
      continue;
    }
    if (Status == RpcStatus::Rejected) {
      if (ServerError.Code == "deadline" && TinyDeadline) {
        Tally.Deadline.fetch_add(1);
        continue;
      }
      Fail("request " + std::to_string(I) + " rejected [" + ServerError.Code +
           "] " + ServerError.Message);
      continue;
    }
    if (Status != RpcStatus::Ok) {
      Fail("request " + std::to_string(I) + " transport: " + Err);
      if (!EP.connect(Client, &Err)) {
        Fail("reconnect: " + Err);
        return;
      }
      continue;
    }

    // The bit-identity contract: IR and exact costs must match the
    // in-process allocation of the same module/options.
    if (Response.AllocatedIr != Case.ExpectedIr) {
      Fail("request " + std::to_string(I) +
           ": allocated IR differs from in-process allocation");
      continue;
    }
    if (Response.Totals != Case.ExpectedTotals) {
      Fail("request " + std::to_string(I) +
           ": cost totals differ from in-process allocation");
      continue;
    }
    Tally.Ok.fetch_add(1);
  }
}

std::string encodeGarbageTornFrame(unsigned Seed) {
  // A valid header announcing more payload than we send: the server's
  // frame read sees EOF (the caller half-closes), counts it malformed,
  // and moves on.
  Frame F;
  F.Type = FrameType::AllocRequest;
  F.Payload = "config: 9,7,3,3\nmodule:\nmodule torn\n";
  std::string Bytes;
  encodeFrame(F, Bytes);
  return Bytes.substr(0, WireHeaderSize + (Seed % 10));
}

std::string encodeHostileFrame(bool BadOptions) {
  // Well-formed frames whose payload the server must refuse: an option
  // outside the canonical key, or a module with an instruction after its
  // block's terminator.
  Frame F;
  F.Type = FrameType::AllocRequest;
  F.Payload = std::string("config: 9,7,3,3\nmode: profile\noptions: "
                          "kind=improved") +
              (BadOptions ? " max-rounds=0" : "") +
              "\nmodule:\nmodule hostile\nfunc @main {\nentry:\n"
              "  %i0 = loadimm 1\n  ret %i0\n" +
              (BadOptions ? "" : "  %i1 = loadimm 2\n") + "}\n";
  std::string Bytes;
  encodeFrame(F, Bytes);
  return Bytes;
}

int runBurst(const Endpoint &EP, int Argc, char **Argv, int First) {
  BurstOptions Opts;
  for (int I = First; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Unsigned = [&](std::size_t Prefix, unsigned &Out) {
      return std::sscanf(Arg.c_str() + Prefix, "%u", &Out) == 1;
    };
    if (Arg.rfind("--requests=", 0) == 0) {
      if (!Unsigned(11, Opts.Requests))
        return 2;
    } else if (Arg.rfind("--clients=", 0) == 0) {
      if (!Unsigned(10, Opts.Clients) || Opts.Clients == 0)
        return 2;
    } else if (Arg.rfind("--malformed-every=", 0) == 0) {
      if (!Unsigned(18, Opts.MalformedEvery))
        return 2;
    } else if (Arg.rfind("--deadline-every=", 0) == 0) {
      if (!Unsigned(17, Opts.DeadlineEvery))
        return 2;
    } else if (Arg == "--zipf") {
      Opts.Zipf = true;
    } else if (Arg == "--wire=v1") {
      Opts.WireV2 = false;
    } else if (Arg == "--wire=v2") {
      Opts.WireV2 = true;
    } else {
      printUsage();
      return 2;
    }
  }

  // Precompute the case mix and its bit-exact expectations once, so the
  // hot loop only compares. Each proxy goes out under every allocator, so
  // all but its first allocation find the module in the server's tier.
  const char *Allocators[] = {"improved", "base", "cbh", "priority"};
  std::vector<BurstCase> Cases;
  for (const std::string &Proxy : specProxyNames()) {
    std::unique_ptr<Module> M = buildSpecProxy(Proxy);
    std::string Text = moduleText(*M);
    std::string Binary;
    if (Opts.WireV2) {
      std::string EncErr;
      if (!encodeModuleBinary(*M, Binary, &EncErr)) {
        std::cerr << "ccra_client: cannot binary-encode " << Proxy << ": "
                  << EncErr << '\n';
        return 1;
      }
    }
    for (const char *Allocator : Allocators) {
      BurstCase Case;
      Case.Request.ModuleText = Text;
      Case.ModuleBinary = Binary;
      allocatorOptionsFor(Allocator, Case.Request.Options);
      Case.Request.Mode =
          Cases.size() % 2 ? FrequencyMode::Static : FrequencyMode::Profile;
      if (!expectedAllocation(Case.Request, Case.ExpectedIr,
                              Case.ExpectedTotals)) {
        std::cerr << "ccra_client: failed to precompute expectation for "
                  << Proxy << " under " << Allocator << '\n';
        return 1;
      }
      Cases.push_back(std::move(Case));
    }
  }

  std::vector<double> ZipfTable;
  if (Opts.Zipf)
    ZipfTable = zipfCdf(Cases.size());

  BurstTally Tally;
  std::mutex LogMutex;
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Opts.Clients; ++W)
    Workers.emplace_back([&, W] {
      burstWorker(EP, Opts, Cases, ZipfTable, W, Tally, LogMutex);
    });
  for (std::thread &T : Workers)
    T.join();

  std::cout << "burst: " << Tally.Ok.load() << " ok, " << Tally.Shed.load()
            << " shed, " << Tally.Deadline.load() << " deadline, "
            << Tally.MalformedAnswered.load() << " malformed answered, "
            << Tally.Failures.load() << " failures\n";
  if (Tally.Failures.load())
    return 1;
  if (Tally.Ok.load() == 0) {
    std::cerr << "ccra_client: burst completed no successful requests\n";
    return 1;
  }

  // The per-layer budget (against a daemon run with its caches off), then
  // the cache assertions (against one run with its caches on).
  ServiceClient Client;
  std::string Err;
  if (!EP.connect(Client, &Err)) {
    std::cerr << "ccra_client: burst stats connect: " << Err << '\n';
    return 1;
  }
  bool CacheCapable = Client.hello().CacheEnabled;
  TelemetrySnapshot Snapshot;
  ErrorResponse ServerError;
  if (Client.stats(Snapshot, ServerError, &Err) != RpcStatus::Ok) {
    std::cerr << "ccra_client: burst stats: " << Err << '\n';
    return 1;
  }
  double BatchMs = Snapshot.timeMs(telemetry::ServeBatchPhase);
  double AllocateMs = Snapshot.timeMs(telemetry::AllocateTotal);
  std::cout << "serve.batch: " << BatchMs << " ms over allocate_total "
            << AllocateMs << " ms"
            << (CacheCapable ? " (server caches on; budget skipped)" : "")
            << '\n';
  if (!CacheCapable && BatchMs > MaxBatchOverAllocate * AllocateMs) {
    std::cerr << "ccra_client: serve.batch exceeds " << MaxBatchOverAllocate
              << "x allocate_total\n";
    return 1;
  }
  const char *Skipped =
      CacheCapable ? "" : " (server not cache-capable; skipped)";
  double ModuleHits = Snapshot.count(telemetry::CacheModuleHits);
  std::cout << "module tier: hits " << ModuleHits << ", misses "
            << Snapshot.count(telemetry::CacheModuleMisses) << Skipped << '\n';
  if (CacheCapable && ModuleHits <= 0) {
    std::cerr << "ccra_client: burst produced no module-tier hits against a "
                 "cache-capable server\n";
    return 1;
  }

  if (Opts.Zipf) {
    double Hits = Snapshot.count(telemetry::CacheHits);
    double Misses = Snapshot.count(telemetry::CacheMisses);
    double Rate = (Hits + Misses) > 0 ? Hits / (Hits + Misses) : 0.0;
    std::cout << "zipf: cache hits " << Hits << ", misses " << Misses
              << ", hit-rate " << Rate << Skipped << '\n';
    if (CacheCapable && Hits <= 0) {
      std::cerr << "ccra_client: zipf burst produced no cache hits against a "
                   "cache-capable server\n";
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Endpoint EP;
  int I = 1;
  for (; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--version") {
      std::cout << buildInfoString() << '\n';
      return 0;
    } else if (Arg.rfind("--unix=", 0) == 0) {
      EP.UnixPath = Arg.substr(7);
    } else if (Arg.rfind("--port=", 0) == 0) {
      if (std::sscanf(Arg.c_str() + 7, "%d", &EP.Port) != 1) {
        printUsage();
        return 2;
      }
    } else if (Arg.rfind("--timeout=", 0) == 0) {
      if (std::sscanf(Arg.c_str() + 10, "%d", &EP.TimeoutMs) != 1) {
        printUsage();
        return 2;
      }
    } else {
      break;
    }
  }
  if (I >= Argc || (EP.UnixPath.empty() && EP.Port < 0)) {
    printUsage();
    return 2;
  }
  std::string Command = Argv[I];
  if (Command == "alloc")
    return runAlloc(EP, Argc, Argv, I + 1);
  if (Command == "stats")
    return runStats(EP);
  if (Command == "burst")
    return runBurst(EP, Argc, Argv, I + 1);
  printUsage();
  return 2;
}
