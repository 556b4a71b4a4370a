//===- tests/CacheTest.cpp - Allocation cache + module tier coverage ------===//
//
// Tier-1 coverage for the caching tier (src/service/):
//
//  - AllocationCache unit behavior: a hit returns the very frame object
//    that was inserted, the byte-bounded LRU eviction policy, oversized-entry
//    rejection, disabled-cache semantics, idempotent re-insertion (the
//    publish race two workers can run), and the piecewise adapters the
//    benchmark's in-process replay uses;
//  - allocationCacheKey covers exactly the result-affecting request fields
//    and is blind to admission control (DeadlineMs) and execution
//    strategy (Jobs et al.);
//  - ModuleTier unit behavior: keying on codec plus exact bytes (never on
//    the hash alone), LRU eviction by charge, the per-entry cap, evicted
//    entries kept alive for their holders;
//  - concurrent hit storms over one shared cache and over the module tier
//    (the TSan stage runs this binary; see tools/check.sh);
//  - the end-to-end contract: every committed fuzz corpus entry replayed
//    twice through a cache-enabled server over both codecs (text and
//    CIR2), with the cached response frame, header included,
//    byte-identical to the cold one and both bit-identical to in-process
//    allocation.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "harness/Experiment.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "service/AllocationCache.h"
#include "service/BinaryCodec.h"
#include "service/ModuleTier.h"
#include "service/Server.h"
#include "support/Hash.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
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

/// The response frame a cold miss would publish for \p Tag: a payload of
/// distinctive bytes of \p Size (at least the tag's length).
WireFrame frameFor(const std::string &Tag, std::size_t Size = 64) {
  std::string P = "payload of ";
  P += Tag;
  P.resize(std::max(Size, P.size()), '.');
  return encodeWireFrame({FrameType::AllocResponse, P});
}

// The cache takes the key's hash from its caller; these compute it.
WireFrame lookup(AllocationCache &Cache, const std::string &Key) {
  return Cache.lookup(hash64(Key), Key);
}

void insert(AllocationCache &Cache, const std::string &Key, WireFrame F) {
  Cache.insert(hash64(Key), Key, std::move(F));
}

std::string keyFor(const std::string &Tag) {
  std::string Key = "options for ";
  Key += Tag;
  Key += "\nmodule ";
  Key += Tag;
  Key += '\n';
  return Key;
}

/// What the cache charges for \p Key plus a frame of \p Size bytes.
std::size_t chargeOf(const std::string &Key, std::size_t Size) {
  AllocationCache Probe(1u << 20);
  insert(Probe, Key, std::make_shared<const std::string>(Size, 'x'));
  return Probe.stats().Bytes;
}

TEST(AllocationCacheUnit, MissThenHitReplaysTheStoredResponse) {
  AllocationCache Cache(1u << 20);
  ASSERT_TRUE(Cache.enabled());
  const std::string Key = keyFor("m");
  const WireFrame Stored = frameFor("m", 300);

  EXPECT_EQ(nullptr, lookup(Cache, Key));
  insert(Cache, Key, Stored);
  WireFrame Hit = lookup(Cache, Key);
  // The very frame object that was stored: a hit never re-encodes or
  // copies.
  EXPECT_EQ(Stored, Hit);
  EXPECT_EQ(Hit, lookup(Cache, Key));

  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(2u, S.Hits);
  EXPECT_EQ(1u, S.Misses);
  EXPECT_EQ(1u, S.Insertions);
  EXPECT_EQ(1u, S.Modules);
  // Charged the key, the frame and a fixed overhead.
  EXPECT_GT(S.Bytes, Key.size() + Stored->size());
  EXPECT_EQ(S.Bytes - Key.size() - Stored->size(),
            chargeOf("k", 5) - 1 - 5);
}

TEST(AllocationCacheUnit, DisabledCacheNeverHitsAndStoresNothing) {
  AllocationCache Cache(0);
  EXPECT_FALSE(Cache.enabled());
  insert(Cache, keyFor("off"), frameFor("off"));
  EXPECT_EQ(nullptr, lookup(Cache, keyFor("off")));
  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(0u, S.Insertions);
  EXPECT_EQ(0u, S.Modules);
  EXPECT_EQ(0u, S.Bytes);
}

TEST(AllocationCacheUnit, EvictsLeastRecentlyUsedModulesToFitTheBudget) {
  // Three small entries and one whose payload alone outweighs two of
  // them: the budget fits the three small ones plus half of a fourth.
  const std::size_t Small = 100, Large = 250;
  const std::size_t OneSmall =
      chargeOf(keyFor("aaaa"), frameFor("aaaa", Small)->size());
  const std::size_t OneLarge =
      chargeOf(keyFor("dddd"), frameFor("dddd", Large)->size());
  const std::size_t Budget = 3 * OneSmall + OneSmall / 2;
  ASSERT_LT(OneLarge, 2 * OneSmall + OneSmall / 2);
  ASSERT_GT(OneLarge, OneSmall + OneSmall / 2);

  AllocationCache Cache(Budget);
  for (const char *Tag : {"aaaa", "bbbb", "cccc"})
    insert(Cache, keyFor(Tag), frameFor(Tag, Small));
  // Touch A so B, then C, are the least recently used.
  ASSERT_NE(nullptr, lookup(Cache, keyFor("aaaa")));
  insert(Cache, keyFor("dddd"), frameFor("dddd", Large));

  EXPECT_EQ(*frameFor("aaaa", Small), *lookup(Cache, keyFor("aaaa")));
  EXPECT_EQ(nullptr, lookup(Cache, keyFor("bbbb")))
      << "LRU entry survived eviction";
  EXPECT_EQ(nullptr, lookup(Cache, keyFor("cccc")))
      << "the large frame needs the room of two small entries";
  EXPECT_EQ(*frameFor("dddd", Large), *lookup(Cache, keyFor("dddd")));

  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(2u, S.Evictions);
  EXPECT_EQ(2u, S.Modules);
  EXPECT_EQ(OneSmall + OneLarge, S.Bytes);
  EXPECT_LE(S.Bytes, Cache.capacityBytes());
}

TEST(AllocationCacheUnit, EntryLargerThanTheWholeBudgetIsNotAdmitted) {
  const std::string Resident = keyFor("r"), Big = keyFor("big");
  AllocationCache Cache(chargeOf(Resident, frameFor("r")->size()) + 100);
  insert(Cache, Resident, frameFor("r"));
  ASSERT_EQ(1u, Cache.stats().Insertions);

  insert(Cache, Big, frameFor("big", Cache.capacityBytes()));
  EXPECT_EQ(nullptr, lookup(Cache, Big));
  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(1u, S.Insertions);
  EXPECT_EQ(0u, S.Evictions) << "rejection must not churn resident entries";
  EXPECT_NE(nullptr, lookup(Cache, Resident));
}

TEST(AllocationCacheUnit, ReinsertingAnExistingKeyIsANoOp) {
  AllocationCache Cache(1u << 20);
  const std::string Key = keyFor("twice");
  insert(Cache, Key, frameFor("twice"));
  WireFrame First = lookup(Cache, Key);
  const std::size_t Bytes = Cache.stats().Bytes;
  // Two workers publishing the same miss; the first entry stays.
  insert(Cache, Key, frameFor("twice", 500));
  AllocationCacheStats S = Cache.stats();
  EXPECT_EQ(1u, S.Insertions);
  EXPECT_EQ(1u, S.Modules);
  EXPECT_EQ(Bytes, S.Bytes);
  EXPECT_EQ(First, lookup(Cache, Key));
}

TEST(AllocationCacheAdapter, RecordInsertThenResponseLookupRoundTrips) {
  // The piecewise publish of the benchmark's replay: one allocated
  // function and one declaration, whose IR is distinctive enough to catch
  // ordering bugs, with telemetry values that need every digit.
  using FunctionRecord = AllocationCache::FunctionRecord;
  AllocResponse Original;
  Original.Totals = {1.5, 2.5, 0.1, 1e-300};
  Original.Telemetry.set(telemetry::Functions, 1);
  Original.Telemetry.set(telemetry::AllocateTotal, 0.1 + 0.2);
  FunctionRecord Fn;
  Fn.HasSummary = true;
  Fn.Summary = {"f_m", {1.5, 2.5, 0.1, 1e-300}, 2, 1, 0, 3, 2};
  Fn.Ir = "func @f_m {\nentry:\n  ret\n}\n\n";
  FunctionRecord Decl;
  Decl.Ir = "func @ext_m (external)\n\n";
  Original.Functions = {Fn.Summary};
  Original.AllocatedIr = "module m\n" + Fn.Ir + Decl.Ir;

  AllocationCache Cache(1u << 20);
  const std::string Key = keyFor("m");
  AllocResponse Out;
  EXPECT_FALSE(Cache.lookup(Key, Out));
  Cache.insert(Key, "module m\n", Original.Totals, Original.Telemetry,
               {Fn, Decl});
  // One store: the adapter's entry is the frame the daemon would send.
  ASSERT_NE(nullptr, lookup(Cache, Key));
  std::string Expected;
  encodeFrame({FrameType::AllocResponse, encodeAllocResponse(Original)},
              Expected);
  EXPECT_EQ(Expected, *lookup(Cache, Key));
  EXPECT_EQ(Expected, *encodeAllocResponseFrame(Original));

  ASSERT_TRUE(Cache.lookup(Key, Out));
  EXPECT_TRUE(Original.Totals == Out.Totals);
  ASSERT_EQ(1u, Out.Functions.size());
  const FunctionSummary &A = Original.Functions[0], &B = Out.Functions[0];
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_TRUE(A.Costs == B.Costs);
  EXPECT_EQ(A.Rounds, B.Rounds);
  EXPECT_EQ(A.SpilledRanges, B.SpilledRanges);
  EXPECT_EQ(A.VoluntarySpills, B.VoluntarySpills);
  EXPECT_EQ(A.CoalescedMoves, B.CoalescedMoves);
  EXPECT_EQ(A.CalleeRegsPaid, B.CalleeRegsPaid);
  EXPECT_TRUE(Original.Telemetry == Out.Telemetry);
  EXPECT_EQ(Original.AllocatedIr, Out.AllocatedIr);
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
  const std::string HotKey = keyFor("hot");
  const WireFrame HotFrame = frameFor("hot");
  insert(Cache, HotKey, HotFrame);

  const unsigned Threads = 8, Rounds = 500;
  std::vector<std::thread> Workers;
  std::atomic<unsigned> BadReplays{0};
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < Rounds; ++I) {
        WireFrame Hit = lookup(Cache, HotKey);
        if (Hit != HotFrame || *Hit != *frameFor("hot"))
          BadReplays.fetch_add(1);
        if (I % 50 == T) {
          // Cold traffic churning the LRU list under the readers.
          std::string Tag = "t";
          Tag += std::to_string(T);
          Tag += 'i';
          Tag += std::to_string(I);
          insert(Cache, keyFor(Tag), frameFor(Tag));
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
  std::uint64_t H = hash64(Bytes);
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
    return Tier.insert(hash64(Key), false, Key, namedModule(Key));
  };
  auto Lookup = [&](unsigned I) {
    std::string Key = {'k', static_cast<char>('a' + I)};
    return Tier.lookup(hash64(Key), false, Key);
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
        std::string Key = "k";
        Key += std::to_string(10 + (I * 5 + T) % 12);
        std::uint64_t H = hash64(Key);
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

/// Reads one frame off \p S and returns its exact bytes, header included
/// ("" on any failure).
std::string readRawFrame(Socket &S) {
  std::string Bytes(WireHeaderSize, '\0');
  FrameHeader H;
  if (S.recvAll(Bytes.data(), WireHeaderSize, 30000) != IoStatus::Ok ||
      decodeFrameHeader(reinterpret_cast<const unsigned char *>(Bytes.data()),
                        1u << 30, H) != FrameReadStatus::Ok)
    return "";
  Bytes.resize(WireHeaderSize + H.Length);
  if (H.Length > 0 && S.recvAll(Bytes.data() + WireHeaderSize, H.Length,
                                30000) != IoStatus::Ok)
    return "";
  return Bytes;
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
  Socket Conn = Socket::connectTcp(Server.boundPort(), &Err);
  ASSERT_TRUE(Conn.valid()) << Err;
  ASSERT_FALSE(readRawFrame(Conn).empty()) << "no Hello";

  for (const CorpusEntry &Entry : Entries) {
    AllocRequest Request;
    Request.Options = improvedOptions();
    std::string ConfigErr;
    ASSERT_TRUE(configFromHeader(Entry, Request.Config, &ConfigErr))
        << Entry.Path << ": " << ConfigErr;
    Request.ModuleText = printed(*Entry.M);

    // In-process expectation: the cold half of the bit-identity contract.
    ParseResult PR = parseModule(Request.ModuleText);
    ASSERT_TRUE(PR.ok()) << Entry.Path;
    AllocationOutcome Cold =
        SourceAllocation(*PR.M).run(Request.Config, Request.Options,
                                    Request.Mode, Request.Options.Jobs, nullptr);
    ASSERT_TRUE(Cold.ok()) << Entry.Path << ": " << Cold.Diagnostic;
    const std::string ExpectedIr = printed(*PR.M);

    // Each codec's round one misses and allocates; its round two must be
    // served from the cache. Raw frames so the comparison covers every
    // byte, header included. Text and CIR2 submissions are distinct
    // entries.
    AllocRequest Binary = Request;
    ASSERT_TRUE(encodeModuleBinary(*Entry.M, Binary.ModuleBinary, &Err))
        << Entry.Path << ": " << Err;
    Binary.ModuleText.clear();
    const Frame Requests[] = {
        {FrameType::AllocRequest, encodeAllocRequest(Request)},
        {FrameType::AllocRequestV2, encodeAllocRequestV2(Binary)}};
    for (const Frame &Req : Requests) {
      SCOPED_TRACE(Req.Type == FrameType::AllocRequest ? "text" : "CIR2");
      std::string Bytes;
      encodeFrame(Req, Bytes);
      std::string Frames[2];
      for (std::string &Raw : Frames) {
        ASSERT_EQ(IoStatus::Ok,
                  Conn.sendAll(Bytes.data(), Bytes.size(), 30000, &Err))
            << Entry.Path << ": " << Err;
        Raw = readRawFrame(Conn);
        ASSERT_FALSE(Raw.empty()) << Entry.Path;
      }
      EXPECT_EQ(Frames[0], Frames[1])
          << Entry.Path << ": cached frame diverged from cold";
      // The stored header is the one this payload encodes to.
      const std::string Payload = Frames[1].substr(WireHeaderSize);
      std::string Reencoded;
      encodeFrame({FrameType::AllocResponse, Payload}, Reencoded);
      EXPECT_EQ(Reencoded, Frames[1]) << Entry.Path;

      AllocResponse Parsed;
      ASSERT_TRUE(parseAllocResponse(Payload, Parsed, &Err))
          << Entry.Path << ": " << Err;
      EXPECT_EQ(ExpectedIr, Parsed.AllocatedIr) << Entry.Path;
      EXPECT_TRUE(Cold.Result.Totals == Parsed.Totals) << Entry.Path;
    }
  }

  TelemetrySnapshot Stats = Server.stats();
  EXPECT_EQ(2.0 * static_cast<double>(Entries.size()),
            Stats.count(telemetry::CacheHits));
  EXPECT_EQ(2.0 * static_cast<double>(Entries.size()),
            Stats.count(telemetry::CacheMisses));

  Server.requestDrain();
  Server.wait();
}

} // namespace
