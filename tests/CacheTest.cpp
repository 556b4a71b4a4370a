//===- tests/CacheTest.cpp - Allocation cache + module tier coverage ------===//
//
// Tier-1 coverage for the caching tier (src/service/):
//
//  - AllocationCache unit behavior: miss-then-hit replay, per-function
//    reassembly (declarations included), the byte-bounded LRU eviction
//    policy, oversized-entry rejection, disabled-cache semantics, and
//    idempotent re-insertion (the publish race two workers can run);
//  - allocationCacheKey covers exactly the result-affecting request fields
//    and is blind to admission control (DeadlineMs) and execution
//    strategy (Jobs et al.);
//  - ModuleTier unit behavior: keying on codec plus exact bytes (never on
//    the hash alone), LRU eviction by charge, the per-entry cap, evicted
//    entries kept alive for their holders;
//  - concurrent hit storms over one shared cache and over the module tier
//    (the TSan stage runs this binary; see tools/check.sh);
//  - the end-to-end contract: every committed fuzz corpus entry replayed
//    twice through a cache-enabled server, with the cached response
//    byte-identical to the cold one and both bit-identical to in-process
//    allocation.
//
//===----------------------------------------------------------------------===//

#include "core/EngineBuilder.h"
#include "fuzz/Corpus.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "service/AllocationCache.h"
#include "service/Client.h"
#include "service/ModuleTier.h"
#include "service/Server.h"
#include "support/Hash.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ccra;

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

namespace {

using FunctionRecord = AllocationCache::FunctionRecord;

/// A two-function module entry (one allocated function, one declaration)
/// whose reassembled IR is distinctive enough to catch ordering bugs.
struct SampleEntry {
  std::string Key;
  std::string IrHeader;
  CostBreakdown Totals;
  TelemetrySnapshot Telemetry;
  std::vector<FunctionRecord> Functions;
  std::string ExpectedIr;

  explicit SampleEntry(const std::string &Tag) {
    Key = "options for " + Tag + "\nmodule " + Tag + "\n";
    IrHeader = "module " + Tag + "\n";
    Totals = {1.5, 2.5, 0.25, 0.125};
    Telemetry.Counters["functions"] = 1;

    FunctionRecord Fn;
    Fn.HasSummary = true;
    Fn.Summary = {"f_" + Tag, {1.5, 2.5, 0.25, 0.125}, 2, 1, 0, 3, 2};
    Fn.Ir = "func @f_" + Tag + " {\nentry:\n  ret\n}\n\n";
    FunctionRecord Decl;
    Decl.HasSummary = false;
    Decl.Ir = "func @ext_" + Tag + " (external)\n\n";
    Functions = {Fn, Decl};
    ExpectedIr = IrHeader + Fn.Ir + Decl.Ir;
  }

  void insertInto(AllocationCache &C) const {
    C.insert(Key, IrHeader, Totals, Telemetry, Functions);
  }
};

TEST(AllocationCacheUnit, MissThenHitReplaysTheStoredResponse) {
  AllocationCache Cache(1u << 20);
  ASSERT_TRUE(Cache.enabled());
  SampleEntry E("m");

  AllocResponse Out;
  EXPECT_FALSE(Cache.lookup(E.Key, Out));
  E.insertInto(Cache);
  ASSERT_TRUE(Cache.lookup(E.Key, Out));

  // Reassembled byte-for-byte from the header and per-function slices,
  // declarations included; the response's function list carries only the
  // functions that had summaries.
  EXPECT_EQ(E.ExpectedIr, Out.AllocatedIr);
  EXPECT_TRUE(E.Totals == Out.Totals);
  ASSERT_EQ(1u, Out.Functions.size());
  EXPECT_EQ("f_m", Out.Functions[0].Name);
  EXPECT_EQ(1.0, Out.Telemetry.count("functions"));

  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(1u, S.Hits);
  EXPECT_EQ(1u, S.Misses);
  EXPECT_EQ(1u, S.Insertions);
  EXPECT_EQ(1u, S.Modules);
  EXPECT_EQ(2u, S.Functions);
  EXPECT_GT(S.Bytes, 0u);
}

TEST(AllocationCacheUnit, DisabledCacheNeverHitsAndStoresNothing) {
  AllocationCache Cache(0);
  EXPECT_FALSE(Cache.enabled());
  SampleEntry E("off");
  E.insertInto(Cache);
  AllocResponse Out;
  EXPECT_FALSE(Cache.lookup(E.Key, Out));
  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(0u, S.Insertions);
  EXPECT_EQ(0u, S.Modules);
  EXPECT_EQ(0u, S.Bytes);
}

TEST(AllocationCacheUnit, EvictsLeastRecentlyUsedModulesToFitTheBudget) {
  SampleEntry A("aaaa"), B("bbbb"), C("cccc");
  // Budget sized for exactly two entries (all three are the same shape).
  AllocationCache Probe(1u << 20);
  A.insertInto(Probe);
  const std::size_t OneEntry = Probe.stats().Bytes;
  ASSERT_GT(OneEntry, 0u);

  AllocationCache Cache(2 * OneEntry + OneEntry / 2);
  A.insertInto(Cache);
  B.insertInto(Cache);
  // Touch A so B is the LRU module when C arrives.
  AllocResponse Out;
  ASSERT_TRUE(Cache.lookup(A.Key, Out));
  C.insertInto(Cache);

  EXPECT_TRUE(Cache.lookup(A.Key, Out));
  EXPECT_FALSE(Cache.lookup(B.Key, Out)) << "LRU module survived eviction";
  EXPECT_TRUE(Cache.lookup(C.Key, Out));

  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(1u, S.Evictions);
  EXPECT_EQ(2u, S.Modules);
  EXPECT_LE(S.Bytes, Cache.capacityBytes());
}

TEST(AllocationCacheUnit, EntryLargerThanTheWholeBudgetIsNotAdmitted) {
  SampleEntry Small("s");
  AllocationCache Probe(1u << 20);
  Small.insertInto(Probe);
  AllocationCache Cache(Probe.stats().Bytes / 2);

  Small.insertInto(Cache);
  AllocResponse Out;
  EXPECT_FALSE(Cache.lookup(Small.Key, Out));
  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(0u, S.Insertions);
  EXPECT_EQ(0u, S.Evictions) << "rejection must not churn resident entries";
}

TEST(AllocationCacheUnit, ReinsertingAnExistingKeyIsANoOp) {
  AllocationCache Cache(1u << 20);
  SampleEntry E("twice");
  E.insertInto(Cache);
  const std::size_t Bytes = Cache.stats().Bytes;
  E.insertInto(Cache); // two workers publishing the same miss
  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(1u, S.Insertions);
  EXPECT_EQ(1u, S.Modules);
  EXPECT_EQ(Bytes, S.Bytes);
}

TEST(AllocationCacheKey, CoversResultFieldsAndIgnoresAdmissionControl) {
  AllocRequest R;
  R.ModuleText = "module m\nfunc @f (external)\n";
  R.Options = improvedOptions();
  const std::string Key = allocationCacheKey(R);

  // Result-affecting fields each change the key...
  AllocRequest Mode = R;
  Mode.Mode = FrequencyMode::Static;
  EXPECT_NE(Key, allocationCacheKey(Mode));
  AllocRequest Config = R;
  Config.Config = RegisterConfig(6, 4, 2, 1);
  EXPECT_NE(Key, allocationCacheKey(Config));
  AllocRequest Text = R;
  Text.ModuleText += "func @g (external)\n";
  EXPECT_NE(Key, allocationCacheKey(Text));
  AllocRequest Behavior = R;
  Behavior.Options.Optimistic = !Behavior.Options.Optimistic;
  EXPECT_NE(Key, allocationCacheKey(Behavior));

  // ...admission control and execution strategy do not.
  AllocRequest Deadline = R;
  Deadline.DeadlineMs = 1234;
  EXPECT_EQ(Key, allocationCacheKey(Deadline));
  AllocRequest Exec = R;
  Exec.Options.Jobs = 16;
  Exec.Options.Verify = !Exec.Options.Verify;
  EXPECT_EQ(Key, allocationCacheKey(Exec));
}

// --- concurrency (exercised under TSan by tools/check.sh) ----------------

TEST(AllocationCacheConcurrency, HitStormWithConcurrentInsertsIsRaceFree) {
  AllocationCache Cache(1u << 20);
  SampleEntry Hot("hot");
  Hot.insertInto(Cache);

  const unsigned Threads = 8, Rounds = 500;
  std::vector<std::thread> Workers;
  std::atomic<unsigned> BadReplays{0};
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < Rounds; ++I) {
        AllocResponse Out;
        if (!Cache.lookup(Hot.Key, Out) || Out.AllocatedIr != Hot.ExpectedIr)
          BadReplays.fetch_add(1);
        if (I % 50 == T) {
          // Cold traffic churning the LRU list under the readers.
          SampleEntry Cold("t" + std::to_string(T) + "i" +
                           std::to_string(I));
          Cold.insertInto(Cache);
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(0u, BadReplays.load());
  EXPECT_EQ(0u, Cache.stats().Misses)
      << "the hot entry fell out of a 1 MiB cache";
}

// --- module tier ---------------------------------------------------------

std::unique_ptr<Module> namedModule(const std::string &Name) {
  return std::make_unique<Module>(Name);
}

TEST(ModuleTierUnit, KeysOnCodecAndExactBytesNotOnTheHash) {
  ModuleTier Tier(1u << 20);
  const std::string Bytes = "module a\n";
  std::uint64_t H = fnv1a64(Bytes);
  EXPECT_EQ(nullptr, Tier.lookup(H, false, Bytes));
  auto Text = Tier.insert(H, false, Bytes, namedModule("a"));
  ASSERT_NE(nullptr, Text);
  EXPECT_EQ(Text, Tier.lookup(H, false, Bytes));
  // Same bytes over the other codec, and other bytes forced into the same
  // hash bucket, are distinct entries.
  EXPECT_EQ(nullptr, Tier.lookup(H, true, Bytes));
  EXPECT_EQ(nullptr, Tier.lookup(H, false, "module b\n"));
  auto Collider = Tier.insert(H, false, "module b\n", namedModule("b"));
  EXPECT_NE(Text, Collider);
  EXPECT_EQ("a", Tier.lookup(H, false, Bytes)->Program->getName());
  EXPECT_EQ("b", Tier.lookup(H, false, "module b\n")->Program->getName());

  ModuleTierStats S = Tier.stats();
  EXPECT_EQ(2u, S.Entries);
  EXPECT_EQ(3u, S.Hits);
  EXPECT_EQ(3u, S.Misses);
  EXPECT_EQ(2 * ModuleTier::charge(false, Bytes.size()), S.Bytes);
}

TEST(ModuleTierUnit, ReinsertingAnExistingKeyReturnsTheFirstEntry) {
  ModuleTier Tier(1u << 20);
  auto First = Tier.insert(7, true, "x", namedModule("first"));
  auto Second = Tier.insert(7, true, "x", namedModule("second"));
  EXPECT_EQ(First, Second);
  EXPECT_EQ("first", Second->Program->getName());
  EXPECT_EQ(1u, Tier.stats().Entries);
}

TEST(ModuleTierUnit, EvictsLeastRecentlyUsedAndKeepsEvictedEntriesAlive) {
  // Room for exactly eight 2-byte text modules (the per-entry cap).
  const std::size_t Charge = ModuleTier::charge(false, 2);
  ModuleTier Tier(8 * Charge);
  auto Insert = [&](unsigned I) {
    std::string Key = {'k', static_cast<char>('a' + I)};
    return Tier.insert(fnv1a64(Key), false, Key, namedModule(Key));
  };
  auto Lookup = [&](unsigned I) {
    std::string Key = {'k', static_cast<char>('a' + I)};
    return Tier.lookup(fnv1a64(Key), false, Key);
  };
  std::shared_ptr<ModuleTier::Entry> First = Insert(0);
  for (unsigned I = 1; I < 8; ++I)
    Insert(I);
  ASSERT_NE(nullptr, Lookup(0)); // entry 0 is now the most recently used
  Insert(8);                     // evicts entry 1, the least recently used

  EXPECT_EQ(nullptr, Lookup(1));
  for (unsigned I : {0u, 2u, 7u, 8u})
    EXPECT_NE(nullptr, Lookup(I)) << I;
  ModuleTierStats S = Tier.stats();
  EXPECT_EQ(1u, S.Evictions);
  EXPECT_EQ(8u, S.Entries);
  EXPECT_EQ(8 * Charge, S.Bytes);

  // An evicted entry a request still holds stays valid.
  for (unsigned I = 10; I < 18; ++I)
    Insert(I);
  EXPECT_EQ(nullptr, Lookup(0));
  EXPECT_EQ("ka", First->Program->getName());
}

TEST(ModuleTierUnit, AdmitsOnlyEntriesUpToAnEighthOfTheBudget) {
  ModuleTier Tier(8 * ModuleTier::charge(true, 100));
  EXPECT_TRUE(Tier.admits(true, 100));
  EXPECT_FALSE(Tier.admits(true, 101));
  // Text parses to fewer bytes per wire byte than CIR2 does.
  EXPECT_TRUE(Tier.admits(false, 300));

  ModuleTier Off(0);
  EXPECT_FALSE(Off.enabled());
  EXPECT_FALSE(Off.admits(false, 1));
  EXPECT_EQ(nullptr, Off.lookup(1, false, "x"));
  EXPECT_EQ(0u, Off.stats().Misses);
}

TEST(ModuleTierConcurrency, ChurningLookupsAndInsertsAreRaceFree) {
  // Twelve keys in a tier that holds eight: workers race inserts of the
  // same key and evictions of entries other workers are still reading.
  const std::size_t Charge = ModuleTier::charge(false, 3);
  ModuleTier Tier(8 * Charge);
  const unsigned Threads = 4, Rounds = 300;
  std::atomic<unsigned> Wrong{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < Rounds; ++I) {
        std::string Key = "k" + std::to_string(10 + (I * 5 + T) % 12);
        std::uint64_t H = fnv1a64(Key);
        std::shared_ptr<ModuleTier::Entry> E = Tier.lookup(H, false, Key);
        if (!E)
          E = Tier.insert(H, false, Key, namedModule(Key));
        if (E->Program->getName() != Key)
          Wrong.fetch_add(1);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(0u, Wrong.load());
  ModuleTierStats S = Tier.stats();
  EXPECT_LE(S.Bytes, 8 * Charge);
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(Threads) * Rounds, S.Hits + S.Misses);
}

// --- end to end: cached == cold, bit for bit -----------------------------

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

TEST(CacheService, CorpusReplaysHitAndStayByteIdenticalToCold) {
  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Entries =
      loadCorpusDir(std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus", Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  ASSERT_FALSE(Entries.empty());

  AllocationServer Server{ServerConfig()};
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  ServiceClient C;
  ASSERT_TRUE(C.connectTcp(Server.boundPort(), &Err)) << Err;

  for (const CorpusEntry &Entry : Entries) {
    AllocRequest Request;
    Request.Options = improvedOptions();
    for (const std::string &Line : Entry.HeaderLines) {
      unsigned Ri, Rf, Ei, Ef;
      if (std::sscanf(Line.c_str(), "config: %u,%u,%u,%u", &Ri, &Rf, &Ei,
                      &Ef) == 4)
        Request.Config = RegisterConfig(Ri, Rf, Ei, Ef);
    }
    Request.ModuleText = printed(*Entry.M);

    // In-process expectation: the cold half of the bit-identity contract.
    ParseResult PR = parseModule(Request.ModuleText);
    ASSERT_TRUE(PR.ok()) << Entry.Path;
    FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, Request.Mode);
    AllocationEngine Engine =
        EngineBuilder(Request.Config).options(Request.Options).build();
    ModuleAllocationResult Cold = Engine.allocateModule(*PR.M, Freq);
    const std::string ExpectedIr = printed(*PR.M);

    // Round one misses and allocates; round two must be served from the
    // cache. Raw frames so the comparison covers the whole payload.
    Frame Req;
    Req.Type = FrameType::AllocRequest;
    Req.Payload = encodeAllocRequest(Request);
    std::string Bytes;
    encodeFrame(Req, Bytes);
    std::string Payloads[2];
    for (int Round = 0; Round < 2; ++Round) {
      ASSERT_TRUE(C.sendRawBytes(Bytes, &Err)) << Entry.Path << ": " << Err;
      Frame Resp;
      ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(Resp, &Err))
          << Entry.Path << ": " << Err;
      ASSERT_EQ(FrameType::AllocResponse, Resp.Type) << Entry.Path;
      Payloads[Round] = Resp.Payload;
    }
    EXPECT_EQ(Payloads[0], Payloads[1])
        << Entry.Path << ": cached response diverged from cold";

    AllocResponse Parsed;
    ASSERT_TRUE(parseAllocResponse(Payloads[1], Parsed, &Err))
        << Entry.Path << ": " << Err;
    EXPECT_EQ(ExpectedIr, Parsed.AllocatedIr) << Entry.Path;
    EXPECT_TRUE(Cold.Totals == Parsed.Totals) << Entry.Path;
  }

  TelemetrySnapshot Stats = Server.stats();
  EXPECT_EQ(static_cast<double>(Entries.size()),
            Stats.count(telemetry::CacheHits));
  EXPECT_EQ(static_cast<double>(Entries.size()),
            Stats.count(telemetry::CacheMisses));

  Server.requestDrain();
  Server.wait();
}

} // namespace
