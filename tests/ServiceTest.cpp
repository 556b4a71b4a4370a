//===- tests/ServiceTest.cpp - Allocation service coverage ----------------===//
//
// Tier-1 coverage for the serving stack (src/service/):
//
//  - frame and payload codecs round-trip exactly (including the
//    shortest-round-trip doubles the bit-identity contract rests on), and
//    the wire checksum is pinned to golden values and sees every
//    single-bit flip;
//  - a live server answers allocations BIT-IDENTICAL to in-process
//    allocation — asserted for the SPEC proxies and for every committed
//    fuzz corpus entry replayed over the wire under its original register
//    configuration;
//  - protocol robustness: garbage bytes, torn frames, checksum corruption,
//    wrong-version headers, and oversized declarations are answered with
//    Error frames (or a clean close) and never take the daemon down — the
//    next well-formed request on a fresh connection still succeeds;
//  - the event loop's reassembly and write queue: pipelined requests, a
//    request split across many reads, and queued response frames to a
//    slow reader all arrive intact;
//  - operational behavior under test hooks (fuzz/Oracle.h's InjectedFault
//    pattern): forced queue overflow sheds, an injected worker fault fails
//    only the targeted request, stalled workers expire deadlines, and a
//    request parked in its worker blocks neither other workers nor hits;
//  - graceful drain: queued work completes, responses flush, new requests
//    are refused, wait() quiesces.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "harness/Experiment.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "service/BinaryCodec.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/BuildInfo.h"
#include "support/Hash.h"
#include "workloads/FuzzGen.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <mutex>
#include <set>
#include <sstream>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ccra;

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

namespace {

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

/// In-process allocation through SourceAllocation, the path the server's
/// workers take: the allocated IR and cost totals a response must match.
void expectedAllocation(const std::string &ModuleText,
                        const AllocRequest &Request, std::string &IrOut,
                        CostBreakdown &TotalsOut) {
  ParseResult PR = parseModule(ModuleText);
  ASSERT_TRUE(PR.ok());
  Telemetry T;
  AllocationOutcome Outcome = SourceAllocation(*PR.M).run(
      Request.Config, Request.Options, Request.Mode, Request.Options.Jobs, T);
  ASSERT_TRUE(Outcome.ok()) << Outcome.Diagnostic;
  IrOut = printed(*PR.M);
  TotalsOut = Outcome.Result.Totals;
}

/// A server on an ephemeral loopback port plus a connected client.
struct LiveServer {
  explicit LiveServer(ServerConfig Config = ServerConfig(),
                      ServerTestHooks Hooks = ServerTestHooks())
      : Server(std::move(Config), std::move(Hooks)) {
    std::string Err;
    Ok = Server.start(&Err);
    EXPECT_TRUE(Ok) << Err;
  }

  ServiceClient connect() {
    ServiceClient C;
    std::string Err;
    EXPECT_TRUE(C.connectTcp(Server.boundPort(), &Err)) << Err;
    return C;
  }

  AllocationServer Server;
  bool Ok = false;
};

AllocRequest proxyRequest(const std::string &Proxy) {
  AllocRequest R;
  R.Options = improvedOptions();
  R.ModuleText = printed(*buildSpecProxy(Proxy));
  return R;
}

// --- codecs --------------------------------------------------------------

TEST(WireCodec, ChecksumIsTheLow32BitsOfTheSharedHash) {
  // Golden values: a refactor or a platform must not change the wire.
  EXPECT_EQ(0x0df90781u, wireChecksum(""));
  EXPECT_EQ(0x3cace9c3u, wireChecksum("a"));
  EXPECT_EQ(0x3d89ecf7u,
            wireChecksum("The quick brown fox jumps over the lazy dog"));
  const std::string Payload = "config: 9,7,3,3\nmodule:\nmodule m\n";
  EXPECT_EQ(static_cast<std::uint32_t>(hash64(Payload)),
            wireChecksum(Payload));

  // The header carries it little-endian at offset 12, after the version.
  std::string Bytes;
  encodeFrame({FrameType::AllocRequest, Payload}, Bytes);
  ASSERT_EQ(WireHeaderSize + Payload.size(), Bytes.size());
  EXPECT_EQ(2, Bytes[4]);
  EXPECT_EQ(0, Bytes[5]);
  std::uint32_t Stored = 0;
  for (int I = 3; I >= 0; --I)
    Stored = Stored << 8 | static_cast<unsigned char>(Bytes[12 + I]);
  EXPECT_EQ(wireChecksum(Payload), Stored);
}

TEST(WireCodec, ChecksumCatchesEveryBitFlipAndEveryZeroLength) {
  std::string Payload(4096, '\0');
  for (std::size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<char>(I * 131 + 7);
  const std::uint32_t Base = wireChecksum(Payload);
  unsigned Missed = 0;
  for (std::size_t Bit = 0; Bit < Payload.size() * 8; ++Bit) {
    Payload[Bit / 8] ^= static_cast<char>(1 << (Bit % 8));
    Missed += wireChecksum(Payload) == Base;
    Payload[Bit / 8] ^= static_cast<char>(1 << (Bit % 8));
  }
  EXPECT_EQ(0u, Missed) << "single-bit flips the checksum did not see";

  std::set<std::uint32_t> Zeros;
  for (std::size_t Len = 0; Len <= 64; ++Len)
    Zeros.insert(wireChecksum(std::string(Len, '\0')));
  EXPECT_EQ(65u, Zeros.size()) << "a zero payload's length must count";
}

TEST(WireCodec, V1PeerIsRefusedByTheVersionGate) {
  std::string Bytes;
  encodeFrame({FrameType::StatsRequest, "x"}, Bytes);
  Bytes[4] = 1;
  FrameHeader H;
  std::string Err;
  EXPECT_EQ(FrameReadStatus::Malformed,
            decodeFrameHeader(
                reinterpret_cast<const unsigned char *>(Bytes.data()),
                1u << 20, H, &Err));
  EXPECT_EQ("unsupported protocol version", Err);
}

TEST(WireCodec, FrameRoundTripsOverSocketPair) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  Socket Writer(Fds[0]), Reader(Fds[1]);

  Frame Out;
  Out.Type = FrameType::AllocRequest;
  Out.Payload = "config: 9,7,3,3\nmodule:\nmodule m\n";
  ASSERT_EQ(IoStatus::Ok, writeFrame(Writer, Out, 1000));

  Frame In;
  ASSERT_EQ(FrameReadStatus::Ok, readFrame(Reader, In, 1u << 20, 1000, 1000));
  EXPECT_EQ(Out.Type, In.Type);
  EXPECT_EQ(Out.Payload, In.Payload);
}

TEST(WireCodec, IdleThenEofThenGarbageAreDistinguished) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  Socket Writer(Fds[0]), Reader(Fds[1]);

  // Nothing sent yet: Idle, nothing consumed.
  Frame In;
  EXPECT_EQ(FrameReadStatus::Idle, readFrame(Reader, In, 1024, 50, 1000));

  // A full header's worth of garbage magic: Malformed.
  const char Garbage[WireHeaderSize] = {'n', 'o', 'p', 'e'};
  ASSERT_EQ(IoStatus::Ok, Writer.sendAll(Garbage, sizeof(Garbage), 1000));
  EXPECT_EQ(FrameReadStatus::Malformed,
            readFrame(Reader, In, 1024, 1000, 1000));

  // Clean close between frames: Eof.
  int Fds2[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds2));
  Socket Writer2(Fds2[0]), Reader2(Fds2[1]);
  Writer2.close();
  EXPECT_EQ(FrameReadStatus::Eof, readFrame(Reader2, In, 1024, 1000, 1000));
}

TEST(WireCodec, TornFrameIsMalformedChecksumGuardsPayload) {
  Frame Out;
  Out.Type = FrameType::StatsRequest;
  Out.Payload = "some payload";
  std::string Bytes;
  encodeFrame(Out, Bytes);

  {
    // Header promises more bytes than ever arrive.
    int Fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Socket Writer(Fds[0]), Reader(Fds[1]);
    std::string Torn = Bytes.substr(0, WireHeaderSize + 3);
    ASSERT_EQ(IoStatus::Ok, Writer.sendAll(Torn.data(), Torn.size(), 1000));
    Writer.close();
    Frame In;
    EXPECT_EQ(FrameReadStatus::Malformed,
              readFrame(Reader, In, 1024, 1000, 1000));
  }
  {
    // Flipped payload byte: checksum mismatch.
    int Fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Socket Writer(Fds[0]), Reader(Fds[1]);
    std::string Corrupt = Bytes;
    Corrupt[WireHeaderSize] ^= 0x40;
    ASSERT_EQ(IoStatus::Ok,
              Writer.sendAll(Corrupt.data(), Corrupt.size(), 1000));
    Frame In;
    EXPECT_EQ(FrameReadStatus::Malformed,
              readFrame(Reader, In, 1024, 1000, 1000));
  }
  {
    // Oversized declaration: TooLarge before any payload is consumed.
    int Fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Socket Writer(Fds[0]), Reader(Fds[1]);
    ASSERT_EQ(IoStatus::Ok, Writer.sendAll(Bytes.data(), Bytes.size(), 1000));
    Frame In;
    EXPECT_EQ(FrameReadStatus::TooLarge, readFrame(Reader, In, 4, 1000, 1000));
  }
}

TEST(Sockets, SendAllDeadlineHoldsWhenPeerStopsReading) {
  // A slow client that accepts the connection but never drains its receive
  // buffer must surface as Timeout within the write budget — the server's
  // slow-client guarantee (and with it SIGTERM drain) rests on this. Uses
  // real connect/accept sockets because those are the fds the fix switches
  // to O_NONBLOCK; a blocking fd would wedge in ::send() here.
  std::string Err;
  ListenSocket L = ListenSocket::listenTcp(0, 4, &Err);
  ASSERT_TRUE(L.valid()) << Err;
  Socket Client = Socket::connectTcp(L.boundPort(), &Err);
  ASSERT_TRUE(Client.valid()) << Err;
  IoStatus St = IoStatus::Error;
  Socket Server = L.accept(1000, St, &Err);
  ASSERT_EQ(IoStatus::Ok, St) << Err;

  // Far larger than any kernel socket buffer pair, so the transfer cannot
  // complete without the peer reading.
  std::string Big(64u << 20, 'x');
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(IoStatus::Timeout, Server.sendAll(Big.data(), Big.size(), 300));
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 5000) << "send blocked far past its deadline";
}

TEST(WireCodec, AllocRequestRoundTripsExactly) {
  AllocRequest R;
  R.Config = RegisterConfig(6, 4, 2, 1);
  R.Mode = FrequencyMode::Static;
  R.Options = cbhOptions();
  // Execution-strategy fields are the server's policy, not the request's:
  // the wire ships canonicalKey(), so Jobs must NOT survive the round trip.
  R.Options.Jobs = 5;
  R.DeadlineMs = 1234;
  R.ModuleText = "module m\nfunc @f (external)\n";

  AllocRequest Back;
  std::string Err;
  ASSERT_TRUE(parseAllocRequest(encodeAllocRequest(R), Back, &Err)) << Err;
  EXPECT_EQ(R.Config.IntCallerSave, Back.Config.IntCallerSave);
  EXPECT_EQ(R.Config.FloatCalleeSave, Back.Config.FloatCalleeSave);
  EXPECT_EQ(R.Mode, Back.Mode);
  EXPECT_EQ(1u, Back.Options.Jobs);
  EXPECT_EQ(R.Options.canonicalKey(), Back.Options.canonicalKey());
  AllocatorOptions Canonical = R.Options;
  Canonical.Jobs = 1;
  EXPECT_EQ(Canonical, Back.Options);
  EXPECT_EQ(R.DeadlineMs, Back.DeadlineMs);
  EXPECT_EQ(R.ModuleText, Back.ModuleText);
}

TEST(WireCodec, AllocResponseRoundTripsBitExactDoubles) {
  AllocResponse R;
  // Values chosen to be unrepresentable in short decimal: the codec must
  // still reproduce them bit-for-bit.
  R.Totals = {0.1 + 0.2, 1e300, 4.9e-324, 123456.789012345};
  R.Functions.push_back({"f", {3.14159265358979, 0, 2.5, 0.1}, 3, 2, 1, 7, 4});
  R.Functions.push_back({"g", {}, 1, 0, 0, 0, 0});
  R.Telemetry.Counters["rounds"] = 4;
  R.Telemetry.TimersMs["color"] = 0.12345;
  R.AllocatedIr = "module m\nfunc @f {\nentry:\n  ret\n}\n";

  AllocResponse Back;
  std::string Err;
  ASSERT_TRUE(parseAllocResponse(encodeAllocResponse(R), Back, &Err)) << Err;
  EXPECT_TRUE(R.Totals == Back.Totals);
  ASSERT_EQ(R.Functions.size(), Back.Functions.size());
  for (std::size_t I = 0; I < R.Functions.size(); ++I) {
    EXPECT_EQ(R.Functions[I].Name, Back.Functions[I].Name);
    EXPECT_TRUE(R.Functions[I].Costs == Back.Functions[I].Costs);
    EXPECT_EQ(R.Functions[I].Rounds, Back.Functions[I].Rounds);
    EXPECT_EQ(R.Functions[I].CalleeRegsPaid, Back.Functions[I].CalleeRegsPaid);
  }
  EXPECT_EQ(R.Telemetry, Back.Telemetry);
  EXPECT_EQ(R.AllocatedIr, Back.AllocatedIr);
}

TEST(WireCodec, HelloAndErrorRoundTrip) {
  HelloInfo H;
  H.ServerInfo = buildInfoString();
  H.MaxPayloadBytes = 16u << 20;
  H.QueueCapacity = 64;
  HelloInfo BH;
  std::string Err;
  ASSERT_TRUE(parseHello(encodeHello(H), BH, &Err)) << Err;
  EXPECT_EQ(H.ServerInfo, BH.ServerInfo);
  EXPECT_EQ(H.Protocol, BH.Protocol);
  EXPECT_EQ(H.MaxPayloadBytes, BH.MaxPayloadBytes);
  EXPECT_EQ(H.QueueCapacity, BH.QueueCapacity);

  ErrorResponse E{"deadline", "expired after 5 ms\nwhile queued"};
  ErrorResponse BE;
  ASSERT_TRUE(parseError(encodeError(E), BE));
  EXPECT_EQ(E.Code, BE.Code);
  EXPECT_EQ(E.Message, BE.Message);
}

// --- live server ---------------------------------------------------------

TEST(Service, HelloCarriesBuildInfoAndLimits) {
  ServerConfig Config;
  Config.QueueCapacity = 5;
  LiveServer S(Config);
  ServiceClient C = S.connect();
  EXPECT_EQ(buildInfoString(), C.hello().ServerInfo);
  EXPECT_EQ(WireVersion, C.hello().Protocol);
  EXPECT_EQ(5u, C.hello().QueueCapacity);
}

TEST(Service, AllocationIsBitIdenticalToInProcess) {
  LiveServer S;
  ServiceClient C = S.connect();
  for (const char *Proxy : {"eqntott", "li"}) {
    AllocRequest Request = proxyRequest(Proxy);
    std::string ExpectedIr;
    CostBreakdown ExpectedTotals;
    expectedAllocation(Request.ModuleText, Request, ExpectedIr,
                       ExpectedTotals);

    AllocResponse Response;
    ErrorResponse ServerError;
    std::string Err;
    ASSERT_EQ(RpcStatus::Ok,
              C.allocate(Request, Response, ServerError, &Err))
        << Err << " [" << ServerError.Code << "] " << ServerError.Message;
    EXPECT_EQ(ExpectedIr, Response.AllocatedIr) << Proxy;
    EXPECT_TRUE(ExpectedTotals == Response.Totals) << Proxy;
    EXPECT_FALSE(Response.Functions.empty());
    EXPECT_GT(Response.Telemetry.count("functions"), 0.0);
  }
}

TEST(Service, CorpusReplaysBitIdenticalOverTheWire) {
  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Entries =
      loadCorpusDir(std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus", Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  ASSERT_FALSE(Entries.empty());

  LiveServer S;
  ServiceClient C = S.connect();
  for (const CorpusEntry &Entry : Entries) {
    AllocRequest Request;
    Request.Options = improvedOptions();
    std::string ConfigErr;
    ASSERT_TRUE(configFromHeader(Entry, Request.Config, &ConfigErr))
        << Entry.Path << ": " << ConfigErr;
    Request.ModuleText = printed(*Entry.M);

    std::string ExpectedIr;
    CostBreakdown ExpectedTotals;
    expectedAllocation(Request.ModuleText, Request, ExpectedIr,
                       ExpectedTotals);

    // The text codec, then the same module as CIR2: the same bytes back.
    AllocRequest Binary = Request;
    Binary.ModuleText.clear();
    ASSERT_TRUE(encodeModuleBinary(*Entry.M, Binary.ModuleBinary))
        << Entry.Path;
    for (const AllocRequest *Sent : {&Request, &Binary}) {
      AllocResponse Response;
      ErrorResponse ServerError;
      std::string Err;
      ASSERT_EQ(RpcStatus::Ok, C.allocate(*Sent, Response, ServerError, &Err))
          << Entry.Path << ": " << Err;
      EXPECT_EQ(ExpectedIr, Response.AllocatedIr) << Entry.Path;
      EXPECT_TRUE(ExpectedTotals == Response.Totals) << Entry.Path;
    }
  }
}

TEST(Service, StatsReflectServedRequests) {
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeRequests));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeResponsesOk));
  EXPECT_GE(Stats.count(telemetry::ServeBatches), 1.0);
  EXPECT_GE(Stats.count(telemetry::ServeConnections), 1.0);
  // The server merged the request's engine telemetry into its own.
  EXPECT_GT(Stats.count("functions"), 0.0);
}

TEST(Service, MalformedModuleAnswersErrorAndKeepsConnection) {
  LiveServer S;
  ServiceClient C = S.connect();

  AllocRequest Bad = proxyRequest("eqntott");
  Bad.ModuleText = "this is not ccra ir\n";
  AllocResponse Response;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Rejected, C.allocate(Bad, Response, ServerError));
  EXPECT_EQ("malformed", ServerError.Code);

  // Same connection still serves valid work.
  AllocRequest Good = proxyRequest("eqntott");
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Good, Response, ServerError));
}

/// Sends \p Payload as one raw AllocRequest frame — no client-side parse
/// or option validation — and expects an Error frame back, returned in
/// \p Out.
void expectRawRequestRejected(ServiceClient &C, const std::string &Payload,
                              ErrorResponse &Out) {
  Frame F;
  F.Type = FrameType::AllocRequest;
  F.Payload = Payload;
  std::string Bytes, Err;
  encodeFrame(F, Bytes);
  ASSERT_TRUE(C.sendRawBytes(Bytes, &Err)) << Err;
  Frame In;
  ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(In, &Err)) << Err;
  ASSERT_EQ(FrameType::Error, In.Type) << In.Payload;
  ASSERT_TRUE(parseError(In.Payload, Out));
}

TEST(Service, NonKeyOptionsAnswerErrorAndKeepServing) {
  // The wire's `options:` line takes only canonicalKey() fields; an
  // execution field or a deleted knob (max-rounds=0 would stop the engine
  // before its first round) is a malformed request.
  LiveServer S;
  ServiceClient C = S.connect();
  const std::string Module = proxyRequest("eqntott").ModuleText;
  for (const char *Key :
       {"max-rounds=0", "legacy-simplifier=1", "graph=dense", "verify=0",
        "jobs=8"}) {
    SCOPED_TRACE(Key);
    ErrorResponse E;
    expectRawRequestRejected(C,
                             "config: 9,7,3,3\nmode: profile\n"
                             "options: kind=improved " +
                                 std::string(Key) + "\nmodule:\n" + Module,
                             E);
    EXPECT_EQ("malformed", E.Code);
    std::string Name(Key, std::string(Key).find('='));
    EXPECT_NE(E.Message.find("'" + Name + "'"), std::string::npos)
        << E.Message;
  }

  AllocRequest Good = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  std::string Err;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Good, Response, ServerError, &Err))
      << Err;
}

/// Sends \p Module to a live server as one raw request, expects Error
/// "malformed" naming \p Needle, then expects a healthy request on the
/// same connection to be served.
void expectModuleRejectedThenServing(const std::string &Module,
                                     const std::string &Needle) {
  LiveServer S;
  ServiceClient C = S.connect();
  ErrorResponse E;
  expectRawRequestRejected(C,
                           "config: 9,7,3,3\nmode: profile\n"
                           "options: kind=improved\nmodule:\n" +
                               Module,
                           E);
  EXPECT_EQ("malformed", E.Code);
  EXPECT_NE(E.Message.find(Needle), std::string::npos) << E.Message;

  AllocRequest Good = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  std::string Err;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Good, Response, ServerError, &Err))
      << Err;
}

TEST(Service, InstructionAfterTerminatorAnswersErrorAndKeepsServing) {
  // The parser must diagnose it before BasicBlock::append asserts.
  expectModuleRejectedThenServing("module m\nfunc @main {\nentry:\n"
                                  "  %i0 = loadimm 1\n  ret %i0\n"
                                  "  %i1 = loadimm 2\n}\n",
                                  "instruction after terminator");
}

TEST(Service, LoopWithoutExitAnswersErrorAndKeepsServing) {
  // Verified, then aborted the daemon in the profile-mode frequency solve.
  expectModuleRejectedThenServing(
      "module m\nfunc @main {\nentry:\n  %i0 = loadimm 1\n  br\n"
      "  ; succs: loop(1)\nloop:\n  %i1 = cmp %i0, %i0\n  condbr %i1\n"
      "  ; succs: loop(1) done(0)\ndone:\n  ret %i0\n}\n",
      "cannot reach a 'ret'");
}

TEST(Service, WideRegisterIdAnswersErrorAndKeepsServing) {
  // Used to alias %i0, so a use without a definition was allocated.
  expectModuleRejectedThenServing(
      "module m\nfunc @main {\nentry:\n  ret %i4294967296\n}\n",
      "register id out of range");
}

TEST(Service, RegisterIdBombAnswersErrorAndKeepsServing) {
  // Used to take seconds and gigabytes of placeholder registers.
  auto Start = std::chrono::steady_clock::now();
  expectModuleRejectedThenServing("module m\nfunc @main {\nentry:\n"
                                  "  %i400000000 = loadimm 1\n"
                                  "  ret %i400000000\n}\n",
                                  "-byte function body");
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::seconds(5));
}

TEST(Service, GarbageAndTornFramesNeverTakeTheServerDown) {
  LiveServer S;

  // A connection per abuse; each must at worst die alone.
  {
    ServiceClient C = S.connect();
    ASSERT_TRUE(C.sendRawBytes(std::string("\xde\xad\xbe\xef garbage")));
    Frame In;
    FrameReadStatus RS = C.readResponse(In);
    // Either an Error frame or a close; never a hang.
    if (RS == FrameReadStatus::Ok) {
      EXPECT_EQ(FrameType::Error, In.Type);
    }
  }
  {
    // Torn frame: valid header, truncated payload, then close.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequest;
    F.Payload = proxyRequest("eqntott").ModuleText;
    std::string Bytes;
    encodeFrame(F, Bytes);
    ASSERT_TRUE(C.sendRawBytes(Bytes.substr(0, WireHeaderSize + 10)));
    C.close();
  }
  {
    // Oversized declaration.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequest;
    F.Payload = "x";
    std::string Huge;
    encodeFrame(F, Huge);
    // Rewrite the length field (header offset 8) to 1 GiB.
    Huge[8] = 0;
    Huge[9] = 0;
    Huge[10] = 0;
    Huge[11] = 0x40;
    ASSERT_TRUE(C.sendRawBytes(Huge));
    Frame In;
    FrameReadStatus RS = C.readResponse(In);
    if (RS == FrameReadStatus::Ok) {
      EXPECT_EQ(FrameType::Error, In.Type);
    }
  }

  // After all that, a fresh client still gets served.
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  std::string Err;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError, &Err))
      << Err;

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_GE(Stats.count(telemetry::ServeMalformed), 2.0);
}

TEST(Service, TornFrameThenHalfCloseIsAnsweredAndClosedAtOnce) {
  // A half-close after a torn frame is EOF mid-frame: the server answers
  // "malformed" and closes without waiting out its mid-frame budget.
  LiveServer S;
  ServiceClient C = S.connect();
  C.setTimeoutMs(10000);
  Frame F;
  F.Type = FrameType::AllocRequest;
  F.Payload = proxyRequest("eqntott").ModuleText;
  std::string Bytes;
  encodeFrame(F, Bytes);
  auto Start = std::chrono::steady_clock::now();
  ASSERT_TRUE(C.sendRawBytes(Bytes.substr(0, WireHeaderSize + 10)));
  ASSERT_TRUE(C.shutdownWrite());
  Frame In;
  ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(In));
  EXPECT_EQ(FrameType::Error, In.Type);
  ErrorResponse E;
  ASSERT_TRUE(parseError(In.Payload, E));
  EXPECT_EQ("malformed", E.Code);
  EXPECT_EQ(FrameReadStatus::Eof, C.readResponse(In));
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 5000) << "the torn frame waited out a timeout";
}

// --- test hooks: shed, fault, deadline -----------------------------------

TEST(Service, ForcedQueueOverflowSheds) {
  ServerTestHooks Hooks;
  std::atomic<bool> Force{true};
  Hooks.ForceQueueOverflow = [&] { return Force.load(); };
  LiveServer S(ServerConfig(), Hooks);
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Shed, C.allocate(Request, Response, ServerError));
  EXPECT_EQ("shed", ServerError.Code);

  // Backpressure is advisory: once load clears, the same connection
  // succeeds on retry.
  Force.store(false);
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeShed));
}

TEST(Service, InjectedWorkerFaultFailsOnlyTheTargetedRequest) {
  ServerTestHooks Hooks;
  Hooks.FailRequest = [](const AllocRequest &R) {
    return R.ModuleText.find("module li") != std::string::npos;
  };
  LiveServer S(ServerConfig(), Hooks);
  ServiceClient C = S.connect();

  AllocResponse Response;
  ErrorResponse ServerError;
  AllocRequest Poisoned = proxyRequest("li");
  EXPECT_EQ(RpcStatus::Rejected, C.allocate(Poisoned, Response, ServerError));
  EXPECT_EQ("fault", ServerError.Code);

  AllocRequest Healthy = proxyRequest("eqntott");
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Healthy, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeWorkerFaults));
}

TEST(Service, StalledBatcherExpiresDeadlines) {
  ServerTestHooks Hooks;
  Hooks.BeforeBatch = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  LiveServer S(ServerConfig(), Hooks);
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  Request.DeadlineMs = 1;
  AllocResponse Response;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Rejected, C.allocate(Request, Response, ServerError));
  EXPECT_EQ("deadline", ServerError.Code);

  // Without a deadline the same stalled server still answers.
  Request.DeadlineMs = 0;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));
}

TEST(Service, ParkedRequestBlocksNeitherOtherWorkersNorHits) {
  // Request A parks inside its worker until released. With two workers,
  // a second cold request, a cache hit and a cold request for A's own
  // module at another config must all be answered while A is still
  // parked, and A must then complete bit-identical. Every read is bounded
  // by the client timeout, so head-of-line blocking fails the test instead
  // of hanging it.
  struct Latch {
    std::mutex M;
    std::condition_variable CV;
    bool Parked = false;
    bool Released = false;
    void release() {
      std::lock_guard<std::mutex> Lock(M);
      Released = true;
      CV.notify_all();
    }
  } L;
  ServerTestHooks Hooks;
  const RegisterConfig ParkedConfig = AllocRequest().Config;
  Hooks.FailRequest = [&](const AllocRequest &R) {
    if (R.ModuleText.find("module li") != std::string::npos &&
        R.Config == ParkedConfig) {
      std::unique_lock<std::mutex> Lock(L.M);
      L.Parked = true;
      L.CV.notify_all();
      L.CV.wait(Lock, [&] { return L.Released; });
    }
    return false;
  };
  ServerConfig Config;
  Config.PoolThreads = 2;
  LiveServer S(Config, Hooks);
  // Declared after the server so it is destroyed first: a failing
  // assertion still releases A before the server drains.
  struct ReleaseOnExit {
    Latch &L;
    ~ReleaseOnExit() { L.release(); }
  } Guard{L};
  constexpr int TimeoutMs = 5000;

  ServiceClient CA = S.connect();
  CA.setTimeoutMs(TimeoutMs);
  AllocRequest A = proxyRequest("li");
  Frame FA;
  FA.Type = FrameType::AllocRequest;
  FA.Payload = encodeAllocRequest(A);
  std::string Bytes, Err;
  encodeFrame(FA, Bytes);
  ASSERT_TRUE(CA.sendRawBytes(Bytes, &Err)) << Err;
  {
    std::unique_lock<std::mutex> Lock(L.M);
    ASSERT_TRUE(L.CV.wait_for(Lock, std::chrono::milliseconds(TimeoutMs),
                              [&] { return L.Parked; }))
        << "request A never reached a worker";
  }

  AllocRequest B = proxyRequest("eqntott");
  std::string ExpectedIr;
  CostBreakdown ExpectedTotals;
  expectedAllocation(B.ModuleText, B, ExpectedIr, ExpectedTotals);
  AllocResponse Response;
  ErrorResponse ServerError;
  ServiceClient CB = S.connect();
  CB.setTimeoutMs(TimeoutMs);
  ASSERT_EQ(RpcStatus::Ok, CB.allocate(B, Response, ServerError, &Err))
      << "cold request blocked behind the parked one: " << Err;
  EXPECT_EQ(ExpectedIr, Response.AllocatedIr);

  ServiceClient CH = S.connect();
  CH.setTimeoutMs(TimeoutMs);
  ASSERT_EQ(RpcStatus::Ok, CH.allocate(B, Response, ServerError, &Err))
      << "cache hit blocked behind the parked one: " << Err;
  EXPECT_EQ(ExpectedIr, Response.AllocatedIr);
  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, CH.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheHits));
  // B's cold run and its hit; A is still parked.
  EXPECT_EQ(2.0, Stats.count(telemetry::ServeResponsesOk));

  // The same module as A at another config: a queue keyed on the module
  // would hold it behind A, but the one queue hands it to the free worker.
  AllocRequest Sibling = A;
  Sibling.Config = RegisterConfig(6, 4, 2, 2);
  ASSERT_NE(ParkedConfig, Sibling.Config);
  expectedAllocation(Sibling.ModuleText, Sibling, ExpectedIr, ExpectedTotals);
  ServiceClient CS = S.connect();
  CS.setTimeoutMs(TimeoutMs);
  ASSERT_EQ(RpcStatus::Ok, CS.allocate(Sibling, Response, ServerError, &Err))
      << "same-module request blocked behind the parked one: " << Err;
  EXPECT_EQ(ExpectedIr, Response.AllocatedIr);
  EXPECT_TRUE(ExpectedTotals == Response.Totals);

  L.release();
  Frame In;
  ASSERT_EQ(FrameReadStatus::Ok, CA.readResponse(In, &Err)) << Err;
  ASSERT_EQ(FrameType::AllocResponse, In.Type) << In.Payload;
  AllocResponse ResponseA;
  ASSERT_TRUE(parseAllocResponse(In.Payload, ResponseA, &Err)) << Err;
  expectedAllocation(A.ModuleText, A, ExpectedIr, ExpectedTotals);
  EXPECT_EQ(ExpectedIr, ResponseA.AllocatedIr);
  EXPECT_TRUE(ExpectedTotals == ResponseA.Totals);
}

// --- drain ---------------------------------------------------------------

TEST(Service, DrainFinishesInFlightWorkAndRefusesNew) {
  auto S = std::make_unique<LiveServer>();
  int Port = S->Server.boundPort();

  // Hold a connection open across the drain; its request was fully served
  // beforehand and the drain must not tear the socket from under it.
  ServiceClient C;
  std::string Err;
  ASSERT_TRUE(C.connectTcp(Port, &Err)) << Err;
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  S->Server.requestDrain();
  EXPECT_TRUE(S->Server.draining());

  // The held connection is told "draining" (or closed) on its next try...
  RpcStatus Status = C.allocate(Request, Response, ServerError, &Err);
  EXPECT_TRUE(Status == RpcStatus::Rejected || Status == RpcStatus::Transport);
  if (Status == RpcStatus::Rejected) {
    EXPECT_EQ("draining", ServerError.Code);
  }

  // ...new connections are refused outright, and wait() quiesces.
  S->Server.wait();
  ServiceClient Late;
  EXPECT_FALSE(Late.connectTcp(Port, &Err));
  S.reset();
}

// --- cache ---------------------------------------------------------------

TEST(WireCodec, HelloEmitsEveryFieldAndSkipsUnknownKeys) {
  HelloInfo H;
  H.ServerInfo = "server x";
  H.MaxPayloadBytes = 1234;
  H.QueueCapacity = 7;
  H.CacheEnabled = true;
  H.MaxCodec = WireMaxCodec;
  const std::string Payload = encodeHello(H);
  EXPECT_EQ("server: server x\nprotocol: 2\nmax-payload: 1234\nqueue: 7\n"
            "cache: 1\ncodec-max: 2\n",
            Payload);

  // Keys this build does not know (a retired `minor:` among them) are
  // skipped, so the parse lands on exactly the emitted fields.
  for (const std::string &Text :
       {Payload, "minor: 2\n" + Payload + "future-key: whatever\n"}) {
    HelloInfo Parsed;
    std::string Err;
    ASSERT_TRUE(parseHello(Text, Parsed, &Err)) << Err;
    EXPECT_EQ(H.ServerInfo, Parsed.ServerInfo);
    EXPECT_EQ(H.Protocol, Parsed.Protocol);
    EXPECT_EQ(H.MaxPayloadBytes, Parsed.MaxPayloadBytes);
    EXPECT_EQ(H.QueueCapacity, Parsed.QueueCapacity);
    EXPECT_TRUE(Parsed.CacheEnabled);
    EXPECT_EQ(WireMaxCodec, Parsed.MaxCodec);
  }
}

TEST(Service, HelloAdvertisesCache) {
  {
    LiveServer S; // defaults: cache on
    ServiceClient C = S.connect();
    EXPECT_TRUE(C.hello().CacheEnabled);
  }
  {
    ServerConfig Config;
    Config.CacheBytes = 0;
    LiveServer S(Config);
    ServiceClient C = S.connect();
    EXPECT_FALSE(C.hello().CacheEnabled);
  }
}

TEST(Service, StatsReportOneQueue) {
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  ASSERT_TRUE(Stats.Counters.count("serve.queue_depth"));
  EXPECT_EQ(0.0, Stats.count("serve.queue_depth"));
  // Every dotted key belongs to the server's namespaces or the engine's:
  // no per-queue keys.
  const std::set<std::string> Namespaces = {"serve", "cache", "alloc",
                                            "sched"};
  for (const auto *Map : {&Stats.Counters, &Stats.TimersMs})
    for (const auto &[Key, Value] : *Map) {
      std::size_t Dot = Key.find('.');
      if (Dot != std::string::npos) {
        EXPECT_TRUE(Namespaces.count(Key.substr(0, Dot))) << Key;
      }
    }
}

TEST(Service, RepeatRequestServedFromCacheByteIdentical) {
  LiveServer S;
  ServiceClient C = S.connect();

  // Raw frames so the comparison covers the ENTIRE response payload —
  // costs, per-function summaries, telemetry, and IR — not just the
  // fields a parsed AllocResponse happens to surface.
  AllocRequest Request = proxyRequest("eqntott");
  Frame Req;
  Req.Type = FrameType::AllocRequest;
  Req.Payload = encodeAllocRequest(Request);
  std::string Bytes;
  encodeFrame(Req, Bytes);

  std::string Payloads[2];
  for (int I = 0; I < 2; ++I) {
    std::string Err;
    ASSERT_TRUE(C.sendRawBytes(Bytes, &Err)) << Err;
    Frame Resp;
    ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(Resp, &Err)) << Err;
    ASSERT_EQ(FrameType::AllocResponse, Resp.Type);
    Payloads[I] = Resp.Payload;
  }
  EXPECT_EQ(Payloads[0], Payloads[1])
      << "cache hit diverged from the cold allocation";

  TelemetrySnapshot Stats;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheHits));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheMisses));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheInsertions));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheModules));
  EXPECT_GT(Stats.count(telemetry::CacheBytes), 0.0);
  // The hit bypassed the engine: only the cold run was batched.
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeBatches));
  EXPECT_EQ(2.0, Stats.count(telemetry::ServeResponsesOk));
}

TEST(Service, OptionsPerturbationMissesCache) {
  LiveServer S;
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  // Same module, one behavior field perturbed: a different allocation
  // problem, so it must miss and be solved cold.
  AllocRequest Perturbed = Request;
  Perturbed.Options.AggressiveCoalescing =
      !Perturbed.Options.AggressiveCoalescing;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Perturbed, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheHits));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheMisses));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheInsertions));
}

// --- wire codec v2: binary modules --------------------------------------

TEST(Service, HelloAdvertisesBinaryCodec) {
  LiveServer S;
  ServiceClient C = S.connect();
  EXPECT_EQ(WireMaxCodec, C.hello().MaxCodec);
  EXPECT_GE(C.hello().MaxCodec, 2u);
}

TEST(Service, BinaryRequestsBitIdenticalToTextRequests) {
  // The two ingestion paths must be indistinguishable in their output:
  // same IR bytes, same totals, for every SPEC proxy. The cache keys the
  // codecs separately, so the v2 request is solved cold even right after
  // its v1 twin — this compares two independent allocations, not a
  // cached echo.
  LiveServer S;
  ServiceClient C = S.connect();
  for (const std::string &Proxy : specProxyNames()) {
    AllocRequest TextReq = proxyRequest(Proxy);

    AllocRequest BinReq = TextReq;
    ParseResult PR = parseModule(TextReq.ModuleText);
    ASSERT_TRUE(PR.ok()) << Proxy;
    std::string Err;
    ASSERT_TRUE(encodeModuleBinary(*PR.M, BinReq.ModuleBinary, &Err))
        << Proxy << ": " << Err;
    BinReq.ModuleText.clear();

    AllocResponse TextResp, BinResp;
    ErrorResponse ServerError;
    ASSERT_EQ(RpcStatus::Ok,
              C.allocate(TextReq, TextResp, ServerError, &Err))
        << Proxy << ": " << Err;
    ASSERT_EQ(RpcStatus::Ok, C.allocate(BinReq, BinResp, ServerError, &Err))
        << Proxy << ": " << Err << " [" << ServerError.Code << "] "
        << ServerError.Message;

    EXPECT_EQ(TextResp.AllocatedIr, BinResp.AllocatedIr) << Proxy;
    EXPECT_TRUE(TextResp.Totals == BinResp.Totals) << Proxy;
  }

  // Both codecs populated the cache under their own keys: all cold.
  TelemetrySnapshot Stats;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheHits));
}

TEST(Service, RepeatBinaryRequestServedFromCacheByteIdentical) {
  LiveServer S;
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  ParseResult PR = parseModule(Request.ModuleText);
  ASSERT_TRUE(PR.ok());
  std::string Err;
  ASSERT_TRUE(encodeModuleBinary(*PR.M, Request.ModuleBinary, &Err)) << Err;
  Request.ModuleText.clear();

  Frame Req;
  Req.Type = FrameType::AllocRequestV2;
  Req.Payload = encodeAllocRequestV2(Request);
  std::string Bytes;
  encodeFrame(Req, Bytes);

  std::string Payloads[2];
  for (int I = 0; I < 2; ++I) {
    ASSERT_TRUE(C.sendRawBytes(Bytes, &Err)) << Err;
    Frame Resp;
    ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(Resp, &Err)) << Err;
    ASSERT_EQ(FrameType::AllocResponse, Resp.Type);
    Payloads[I] = Resp.Payload;
  }
  EXPECT_EQ(Payloads[0], Payloads[1]);

  TelemetrySnapshot Stats;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheHits));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheMisses));
}

TEST(Service, V2GarbageAndTornFramesNeverTakeTheServerDown) {
  // The v1 robustness ladder, restated for the binary codec: every abuse
  // is answered with an Error frame or a clean close, the daemon stays up,
  // and the next well-formed v2 request succeeds.
  LiveServer S;

  {
    // Well-framed AllocRequestV2 whose payload is not a v2 payload.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequestV2;
    F.Payload = "\xde\xad not a request";
    std::string Bytes;
    encodeFrame(F, Bytes);
    ASSERT_TRUE(C.sendRawBytes(Bytes));
    Frame In;
    ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(In));
    ASSERT_EQ(FrameType::Error, In.Type);
    ErrorResponse E;
    ASSERT_TRUE(parseError(In.Payload, E));
    EXPECT_EQ("malformed", E.Code);
  }
  {
    // Valid v2 headers carrying corrupted module bytes: the frame and
    // request parse, the module decode fails, the connection survives.
    ServiceClient C = S.connect();
    AllocRequest R = proxyRequest("eqntott");
    ParseResult PR = parseModule(R.ModuleText);
    ASSERT_TRUE(PR.ok());
    std::string Err;
    ASSERT_TRUE(encodeModuleBinary(*PR.M, R.ModuleBinary, &Err));
    R.ModuleText.clear();
    R.ModuleBinary[R.ModuleBinary.size() / 2] ^= 0x5A;

    AllocResponse Response;
    ErrorResponse ServerError;
    EXPECT_EQ(RpcStatus::Rejected, C.allocate(R, Response, ServerError));
    EXPECT_EQ("malformed", ServerError.Code);

    // Same connection still serves valid v2 work.
    AllocRequest Good = proxyRequest("eqntott");
    PR = parseModule(Good.ModuleText);
    ASSERT_TRUE(PR.ok());
    ASSERT_TRUE(encodeModuleBinary(*PR.M, Good.ModuleBinary, &Err));
    Good.ModuleText.clear();
    EXPECT_EQ(RpcStatus::Ok, C.allocate(Good, Response, ServerError));
  }
  {
    // Torn v2 frame: header promises more payload than ever arrives.
    ServiceClient C = S.connect();
    AllocRequest R = proxyRequest("eqntott");
    ParseResult PR = parseModule(R.ModuleText);
    ASSERT_TRUE(PR.ok());
    std::string Err;
    ASSERT_TRUE(encodeModuleBinary(*PR.M, R.ModuleBinary, &Err));
    R.ModuleText.clear();
    Frame F;
    F.Type = FrameType::AllocRequestV2;
    F.Payload = encodeAllocRequestV2(R);
    std::string Bytes;
    encodeFrame(F, Bytes);
    ASSERT_TRUE(C.sendRawBytes(Bytes.substr(0, WireHeaderSize + 10)));
    C.close();
  }
  {
    // Oversized declared length on the v2 frame type.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequestV2;
    F.Payload = "x";
    std::string Huge;
    encodeFrame(F, Huge);
    Huge[8] = 0;
    Huge[9] = 0;
    Huge[10] = 0;
    Huge[11] = 0x40;
    ASSERT_TRUE(C.sendRawBytes(Huge));
    Frame In;
    FrameReadStatus RS = C.readResponse(In);
    if (RS == FrameReadStatus::Ok) {
      EXPECT_EQ(FrameType::Error, In.Type);
    }
  }

  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  std::string Err;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError, &Err))
      << Err;

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_GE(Stats.count(telemetry::ServeMalformed), 2.0);
}

// --- event loop: reassembly and the by-reference write queue -------------

/// Reads one frame off \p S and returns its exact bytes, header included
/// ("" on any failure). With \p Step > 0 the payload is read \p Step bytes
/// at a time with a pause between reads: a slow reader.
std::string readRawFrame(Socket &S, std::size_t Step = 0) {
  std::string Bytes(WireHeaderSize, '\0');
  if (S.recvAll(Bytes.data(), WireHeaderSize, 30000) != IoStatus::Ok)
    return "";
  FrameHeader H;
  if (decodeFrameHeader(reinterpret_cast<const unsigned char *>(Bytes.data()),
                        1u << 30, H) != FrameReadStatus::Ok)
    return "";
  Bytes.resize(WireHeaderSize + H.Length);
  for (std::size_t Pos = WireHeaderSize; Pos < Bytes.size();) {
    std::size_t N = Step ? std::min(Step, Bytes.size() - Pos)
                         : Bytes.size() - Pos;
    if (S.recvAll(Bytes.data() + Pos, N, 30000) != IoStatus::Ok)
      return "";
    Pos += N;
    if (Step)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Bytes;
}

TEST(Service, PipelinedSplitAndSlowlyReadFramesAreAnsweredBitIdentically) {
  // A Unix socket: its kernel buffer (a few hundred KiB) is what the slow
  // reader below overflows.
  ServerConfig Config;
  Config.UnixPath = ::testing::TempDir() + "ccra-pipeline-" +
                    std::to_string(::getpid()) + ".sock";
  LiveServer S(Config);
  ASSERT_TRUE(S.Ok);
  std::string Err;
  Socket Conn = Socket::connectUnix(Config.UnixPath, &Err);
  ASSERT_TRUE(Conn.valid()) << Err;
  ASSERT_FALSE(readRawFrame(Conn).empty()) << "no Hello";

  FuzzGenParams Params;
  Params.Seed = 7;
  Params.SizeScale = 4;
  AllocRequest Big;
  Big.Options = improvedOptions();
  Big.ModuleText = printed(*generateFuzzModule(Params));
  ASSERT_GT(Big.ModuleText.size(), 64u * 1024)
      << "must outgrow the event loop's 64 KiB read buffer";
  const AllocRequest Small = proxyRequest("eqntott"),
                     Other = proxyRequest("li");

  auto FrameOf = [](const AllocRequest &R) {
    std::string Bytes;
    encodeFrame({FrameType::AllocRequest, encodeAllocRequest(R)}, Bytes);
    return Bytes;
  };
  auto Send = [&](const std::string &Bytes) {
    ASSERT_EQ(IoStatus::Ok,
              Conn.sendAll(Bytes.data(), Bytes.size(), 30000, &Err))
        << Err;
  };
  // A well-formed AllocResponse frame carrying the in-process allocation.
  auto Check = [](const AllocRequest &R, const std::string &Raw) {
    ASSERT_GE(Raw.size(), WireHeaderSize) << "no response frame";
    std::string Payload = Raw.substr(WireHeaderSize), Reencoded;
    encodeFrame({FrameType::AllocResponse, Payload}, Reencoded);
    EXPECT_EQ(Reencoded, Raw) << "header is not this payload's";
    AllocResponse Resp;
    std::string ParseErr;
    ASSERT_TRUE(parseAllocResponse(Payload, Resp, &ParseErr)) << ParseErr;
    std::string Ir;
    CostBreakdown Totals;
    expectedAllocation(R.ModuleText, R, Ir, Totals);
    EXPECT_EQ(Ir, Resp.AllocatedIr);
    EXPECT_TRUE(Totals == Resp.Totals);
  };

  // Two requests in one send: the second waits in the reassembly buffer
  // while the first is in flight.
  Send(FrameOf(Small) + FrameOf(Other));
  Check(Small, readRawFrame(Conn));
  Check(Other, readRawFrame(Conn));

  // One request larger than the read buffer, arriving over several
  // readiness events.
  const std::string BigFrame = FrameOf(Big);
  const std::size_t Chunk = BigFrame.size() / 5 + 1;
  for (std::size_t Pos = 0; Pos < BigFrame.size(); Pos += Chunk) {
    Send(BigFrame.substr(Pos, Chunk));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::string Cold = readRawFrame(Conn);
  Check(Big, Cold);

  // A slow reader. The repeats are cache hits answered on the loop, each
  // queueing the one stored frame; together they outgrow the socket
  // buffer while this client reads nothing, so a flush stops mid-frame
  // with more frames queued behind it. Every one must arrive intact.
  const int Repeats = 8;
  ASSERT_GT(Repeats * Cold.size(), 1u << 20);
  std::string Burst;
  for (int I = 0; I < Repeats; ++I)
    Burst += BigFrame;
  Send(Burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int I = 0; I < Repeats; ++I)
    EXPECT_EQ(Cold, readRawFrame(Conn, 16 * 1024)) << "repeat " << I;

  TelemetrySnapshot Stats = S.Server.stats();
  EXPECT_EQ(static_cast<double>(Repeats), Stats.count(telemetry::CacheHits));
  EXPECT_EQ(0.0, Stats.count(telemetry::ServeMalformed));
}

// --- event loop: connection scaling --------------------------------------

TEST(Service, ManyIdleConnectionsPlusActiveWork) {
  // The event loop decouples connection count from thread count: 5,000
  // idle peers must cost nothing but a file descriptor each while
  // allocations proceed on other connections. Then a drain under load:
  // every answer to the looping clients is a bit-identical Ok, a SHED (one
  // admission in 7 is forced to overflow), a deadline, "draining" or a
  // closed connection; the drain sweeps the idle crowd without waiting on
  // any of them, and later connects are refused.
  constexpr unsigned IdleConnections = 5000;
  // This process holds both ends of every connection.
  rlimit Limit{};
  ASSERT_EQ(0, getrlimit(RLIMIT_NOFILE, &Limit));
  Limit.rlim_cur = Limit.rlim_max;
  setrlimit(RLIMIT_NOFILE, &Limit);
  ASSERT_EQ(0, getrlimit(RLIMIT_NOFILE, &Limit));
  ASSERT_GE(Limit.rlim_cur, rlim_t{2 * IdleConnections + 512})
      << "RLIMIT_NOFILE " << Limit.rlim_cur << " cannot hold "
      << IdleConnections << " connections at both ends";

  ServerConfig Config;
  Config.UnixPath = ::testing::TempDir() + "ccra-idle-" +
                    std::to_string(::getpid()) + ".sock";
  Config.CacheBytes = 0; // every request reaches the admission queue
  std::atomic<unsigned> Admissions{0};
  ServerTestHooks Hooks;
  Hooks.ForceQueueOverflow = [&] { return Admissions.fetch_add(1) % 7 == 6; };
  LiveServer S(Config, Hooks);
  const std::string &Path = Config.UnixPath;

  std::vector<Socket> Idle;
  std::string Err;
  for (unsigned I = 0; I < IdleConnections; ++I) {
    Idle.push_back(Socket::connectUnix(Path, &Err));
    ASSERT_TRUE(Idle.back().valid()) << "idle connection " << I << ": " << Err;
  }

  struct Case {
    AllocRequest Request;
    std::string Ir;
    CostBreakdown Totals;
  };
  std::vector<Case> Cases;
  for (const char *Proxy : {"eqntott", "li"}) {
    Case &C = Cases.emplace_back();
    C.Request = proxyRequest(Proxy);
    expectedAllocation(C.Request.ModuleText, C.Request, C.Ir, C.Totals);
  }

  ServiceClient Active;
  ASSERT_TRUE(Active.connectUnix(Path, &Err)) << Err;
  AllocResponse Response;
  ErrorResponse ServerError;
  RpcStatus Status = RpcStatus::Shed;
  while (Status == RpcStatus::Shed)
    Status = Active.allocate(Cases[0].Request, Response, ServerError);
  ASSERT_EQ(RpcStatus::Ok, Status);
  EXPECT_EQ(Cases[0].Ir, Response.AllocatedIr);

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, Active.stats(Stats, ServerError));
  EXPECT_GE(Stats.count(telemetry::ServeOpenConnections),
            IdleConnections + 1.0);
  EXPECT_GE(Stats.count(telemetry::ServePeakConnections),
            IdleConnections + 1.0);
  Active.close();

  std::atomic<unsigned> Ok{0}, Shed{0}, Divergent{0}, Unexplained{0};
  std::vector<std::thread> Clients;
  for (unsigned W = 0; W < 4; ++W)
    Clients.emplace_back([&, W] {
      ServiceClient C;
      std::string CErr;
      if (!C.connectUnix(Path, &CErr)) {
        ++Unexplained;
        return;
      }
      for (unsigned I = W;; ++I) {
        const Case &Sent = Cases[I % Cases.size()];
        AllocRequest Request = Sent.Request;
        Request.DeadlineMs = I % 5 == 0 ? 1 : 0;
        AllocResponse Out;
        ErrorResponse E;
        switch (C.allocate(Request, Out, E, &CErr)) {
        case RpcStatus::Ok:
          ++Ok;
          if (Out.AllocatedIr != Sent.Ir || !(Out.Totals == Sent.Totals))
            ++Divergent;
          continue;
        case RpcStatus::Shed:
          ++Shed;
          continue;
        case RpcStatus::Rejected:
          if (E.Code == "deadline" && Request.DeadlineMs)
            continue;
          if (E.Code != "draining")
            ++Unexplained;
          return;
        case RpcStatus::Transport:
          return; // closed by the drain
        }
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Drain with every idle connection still open: the loop closes them
  // immediately rather than waiting out any per-connection timeout.
  auto Start = std::chrono::steady_clock::now();
  S.Server.requestDrain();
  for (std::thread &T : Clients)
    T.join();
  S.Server.wait();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 10000) << "drain waited on idle connections";
  EXPECT_GT(Ok.load(), 0u);
  EXPECT_GT(Shed.load(), 0u);
  EXPECT_EQ(0u, Divergent.load());
  EXPECT_EQ(0u, Unexplained.load());
  ServiceClient Late;
  EXPECT_FALSE(Late.connectUnix(Path, &Err));
  std::remove(Path.c_str());
}

TEST(Service, DrainInterruptsSilentAndMidFramePeers) {
  auto S = std::make_unique<LiveServer>();
  std::string Err;

  // One peer that never reads its Hello and goes silent, and one that
  // sends a torn header fragment then stalls: without the read-side
  // shutdown in requestDrain() the second would pin its connection thread
  // for the full mid-frame read budget (30 s) and wait() would hang on it.
  Socket Silent = Socket::connectTcp(S->Server.boundPort(), &Err);
  ASSERT_TRUE(Silent.valid()) << Err;
  Socket Torn = Socket::connectTcp(S->Server.boundPort(), &Err);
  ASSERT_TRUE(Torn.valid()) << Err;
  const char Fragment[2] = {'\x00', '\x01'};
  ASSERT_EQ(IoStatus::Ok, Torn.sendAll(Fragment, sizeof(Fragment), 1000));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  auto Start = std::chrono::steady_clock::now();
  S->Server.requestDrain();
  S->Server.wait();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 5000) << "drain waited out a wedged peer";
  S.reset();
}

// --- module tier ---------------------------------------------------------

/// Allocates \p Request on \p C and checks the response against in-process
/// parse, frequencies, allocation and print of \p ModuleText.
void expectServedLikeInProcess(ServiceClient &C, const AllocRequest &Request,
                               const std::string &ModuleText,
                               const std::string &What,
                               AllocResponse *Out = nullptr) {
  std::string ExpectedIr;
  CostBreakdown ExpectedTotals;
  expectedAllocation(ModuleText, Request, ExpectedIr, ExpectedTotals);
  AllocResponse Response;
  ErrorResponse ServerError;
  std::string Err;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError, &Err))
      << What << ": " << Err << " [" << ServerError.Code << "] "
      << ServerError.Message;
  EXPECT_EQ(ExpectedIr, Response.AllocatedIr) << What;
  EXPECT_TRUE(ExpectedTotals == Response.Totals) << What;
  if (Out)
    *Out = std::move(Response);
}

TelemetrySnapshot serverStats(ServiceClient &C) {
  TelemetrySnapshot Stats;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  return Stats;
}

TEST(Service, PriorityReproducerIsServedAndServingContinues) {
  // Under the priority arm with profile frequencies this module left every
  // float register held by unspillable reload temps, and the worker
  // aborted the daemon: "cannot color unspillable reload temp".
  std::ifstream In(std::string(CCRA_SOURCE_DIR) +
                   "/fuzz/corpus/"
                   "repro-call-dense-seed13776463903726723901.ccra");
  std::stringstream Text;
  Text << In.rdbuf();
  AllocRequest Request;
  Request.Options = priorityOptions();
  Request.Config = RegisterConfig(6, 4, 0, 0);
  Request.Mode = FrequencyMode::Profile;
  Request.ModuleText = Text.str();

  LiveServer S;
  ServiceClient C = S.connect();
  expectServedLikeInProcess(C, Request, Request.ModuleText, "reproducer");
  AllocRequest Next = proxyRequest("eqntott");
  expectServedLikeInProcess(C, Next, Next.ModuleText, "next request");
}

AllocRequest corpusFileRequest(const std::string &Name,
                               const RegisterConfig &Config,
                               const AllocatorOptions &Options) {
  std::ifstream In(std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus/" + Name);
  std::stringstream Text;
  Text << In.rdbuf();
  AllocRequest Request;
  Request.Options = Options;
  Request.Config = Config;
  Request.ModuleText = Text.str();
  return Request;
}

TEST(Service, UncolorableConfigsAnswerErrorAndKeepServing) {
  // Too few registers for one instruction's operands: (1,1,0,0) and
  // (2,2,0,0) on ackermann, (4,4,0,0) on merge_sort's 5-argument call.
  // Each used to abort the daemon at an arm's "cannot color unspillable
  // reload temp" assert; the Chaitin-family, CBH and priority arms all
  // reach it.
  struct Case {
    const char *File;
    RegisterConfig Config;
    AllocatorOptions Options;
  };
  const Case Cases[] = {
      {"cc-ackermann.ccra", RegisterConfig(1, 1, 0, 0), improvedOptions()},
      {"cc-ackermann.ccra", RegisterConfig(2, 2, 0, 0), improvedOptions()},
      {"cc-merge_sort.ccra", RegisterConfig(4, 4, 0, 0), improvedOptions()},
      {"cc-ackermann.ccra", RegisterConfig(1, 1, 0, 0), cbhOptions()},
      {"cc-ackermann.ccra", RegisterConfig(1, 1, 0, 0), priorityOptions()},
  };
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Good = proxyRequest("eqntott");
  AllocResponse Before;
  expectServedLikeInProcess(C, Good, Good.ModuleText, "before", &Before);
  for (const Case &K : Cases) {
    AllocRequest Request = corpusFileRequest(K.File, K.Config, K.Options);
    SCOPED_TRACE(std::string(K.File) + " " + K.Config.label());
    ASSERT_FALSE(Request.ModuleText.empty());
    AllocResponse Response;
    ErrorResponse ServerError;
    ASSERT_EQ(RpcStatus::Rejected,
              C.allocate(Request, Response, ServerError));
    EXPECT_EQ("malformed", ServerError.Code);
    EXPECT_NE(ServerError.Message.find("cannot color"), std::string::npos)
        << ServerError.Message;
    EXPECT_NE(ServerError.Message.find(K.Config.label()), std::string::npos)
        << ServerError.Message;
  }
  AllocResponse After;
  expectServedLikeInProcess(C, Good, Good.ModuleText, "after", &After);
  EXPECT_EQ(Before.AllocatedIr, After.AllocatedIr);
  EXPECT_TRUE(Before.Totals == After.Totals);
}

TEST(Service, BankWiderThan64RegistersIsMalformedOnBothWires) {
  // Color assignment tracks a bank in a 64-bit mask. A 65-register bank,
  // and counts whose sum would wrap 32 bits, are refused at parse time.
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Good = proxyRequest("eqntott");
  std::unique_ptr<Module> M = parseModule(Good.ModuleText).M;
  ASSERT_TRUE(M);
  for (const char *Config : {"65,0,0,0", "0,33,0,32", "4294967295,1,0,0"}) {
    SCOPED_TRACE(Config);
    ErrorResponse E;
    expectRawRequestRejected(C,
                             "config: " + std::string(Config) +
                                 "\nmode: profile\noptions: kind=improved"
                                 "\nmodule:\n" +
                                 Good.ModuleText,
                             E);
    EXPECT_EQ("malformed", E.Code);
    EXPECT_NE(E.Message.find("more than 64"), std::string::npos)
        << E.Message;

    AllocRequest V2 = Good;
    unsigned Counts[4];
    ASSERT_EQ(4, std::sscanf(Config, "%u,%u,%u,%u", &Counts[0], &Counts[1],
                             &Counts[2], &Counts[3]));
    V2.Config = RegisterConfig(Counts[0], Counts[1], Counts[2], Counts[3]);
    Frame F;
    F.Type = FrameType::AllocRequestV2;
    std::string Err;
    ASSERT_TRUE(encodeAllocRequestV2(V2, *M, F.Payload, &Err)) << Err;
    std::string Bytes;
    encodeFrame(F, Bytes);
    ASSERT_TRUE(C.sendRawBytes(Bytes, &Err)) << Err;
    Frame In;
    ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(In, &Err)) << Err;
    ASSERT_EQ(FrameType::Error, In.Type) << In.Payload;
    ErrorResponse V2Error;
    ASSERT_TRUE(parseError(In.Payload, V2Error));
    EXPECT_EQ("malformed", V2Error.Code);
    EXPECT_NE(V2Error.Message.find("more than 64"), std::string::npos)
        << V2Error.Message;
  }
  expectServedLikeInProcess(C, Good, Good.ModuleText, "next request");
  // 64 registers per bank is the widest accepted file.
  AllocRequest Widest = Good;
  Widest.Config = RegisterConfig(32, 32, 32, 32);
  expectServedLikeInProcess(C, Widest, Widest.ModuleText, "64 per bank");
}

std::vector<AllocatorOptions> paperAllocators() {
  return {improvedOptions(), baseChaitinOptions(), cbhOptions(),
          priorityOptions(), improvedOptimisticOptions()};
}

TEST(ModuleTier, OneModuleUnderTheGridIsBitIdenticalToInProcess) {
  // 5 allocators x 2 modes x 2 configs of one module: the first request
  // parses it into the tier, the other 19 allocate clones of that entry
  // with its shared frequencies and liveness seeds.
  LiveServer S;
  ServiceClient C = S.connect();
  const std::string Text = printed(*buildSpecProxy("li"));
  unsigned Sent = 0;
  for (const RegisterConfig &Config :
       {RegisterConfig(9, 7, 3, 3), RegisterConfig(6, 4, 2, 2)})
    for (const AllocatorOptions &Options : paperAllocators())
      for (FrequencyMode Mode :
           {FrequencyMode::Profile, FrequencyMode::Static}) {
        AllocRequest Request;
        Request.ModuleText = Text;
        Request.Config = Config;
        Request.Options = Options;
        Request.Mode = Mode;
        expectServedLikeInProcess(C, Request, Text,
                                  "request " + std::to_string(Sent));
        ++Sent;
      }

  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheHits));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheModuleMisses));
  EXPECT_EQ(Sent - 1.0, Stats.count(telemetry::CacheModuleHits));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheModuleEntries));
  EXPECT_EQ(static_cast<double>(ModuleTier::charge(false, Text.size())),
            Stats.count(telemetry::CacheModuleBytes));
}

TEST(ModuleTier, EvictedThenReinsertedModulesStayBitIdentical) {
  // A tier that holds exactly eight of the largest module, fed twelve
  // proxies in a cycle: under LRU every module of the second pass was
  // evicted and is parsed into a fresh entry, whose analyses must be its
  // own even when its Module lands at an evicted module's address.
  std::vector<std::string> Texts;
  std::size_t MaxCharge = 0, SumCharge = 0;
  for (const std::string &Proxy : specProxyNames()) {
    std::string Text = printed(*buildSpecProxy(Proxy));
    if (Text.size() > 5000)
      continue; // keep the sizes close, so the tier holds ~8 of them
    MaxCharge = std::max(MaxCharge, ModuleTier::charge(false, Text.size()));
    SumCharge += ModuleTier::charge(false, Text.size());
    Texts.push_back(std::move(Text));
  }
  ASSERT_GT(Texts.size(), 8u);
  ServerConfig Config;
  Config.CacheBytes = 8 * (8 * MaxCharge); // the tier gets an eighth
  ASSERT_GT(SumCharge, Config.CacheBytes / 8) << "the tier would not churn";
  LiveServer S(Config);
  ServiceClient C = S.connect();

  std::vector<AllocatorOptions> Arms = paperAllocators();
  for (unsigned Pass = 0; Pass < 2; ++Pass)
    for (std::size_t I = 0; I < Texts.size(); ++I) {
      AllocRequest Request;
      Request.ModuleText = Texts[I];
      Request.Options = Arms[Pass];
      expectServedLikeInProcess(C, Request, Texts[I],
                                "pass " + std::to_string(Pass) + " module " +
                                    std::to_string(I));
    }
  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleHits));
  EXPECT_GT(Stats.count(telemetry::CacheModuleEvictions), 0.0);
  EXPECT_LE(Stats.count(telemetry::CacheModuleBytes),
            static_cast<double>(Config.CacheBytes / 8));

  // The most recent reinsertion now serves a warm-module miss.
  AllocRequest Request;
  Request.ModuleText = Texts.back();
  Request.Options = Arms[2];
  expectServedLikeInProcess(C, Request, Texts.back(), "reinserted entry");
  EXPECT_EQ(1.0, serverStats(C).count(telemetry::CacheModuleHits));
}

TEST(ModuleTier, MalformedModuleNeverEntersTheTier) {
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Bad = proxyRequest("eqntott");
  Bad.ModuleText = "this is not ccra ir\n";
  for (int I = 0; I < 2; ++I) {
    AllocResponse Response;
    ErrorResponse ServerError;
    EXPECT_EQ(RpcStatus::Rejected, C.allocate(Bad, Response, ServerError));
    EXPECT_EQ("malformed", ServerError.Code);
  }
  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(2.0, Stats.count(telemetry::ServeMalformed));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheModuleMisses));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleHits));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleEntries));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleBytes));
}

TEST(ModuleTier, TextAndBinaryCodecsTakeTwoEntries) {
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest TextReq = proxyRequest("espresso");
  AllocRequest BinReq = TextReq;
  ParseResult PR = parseModule(TextReq.ModuleText);
  ASSERT_TRUE(PR.ok());
  std::string Err;
  ASSERT_TRUE(encodeModuleBinary(*PR.M, BinReq.ModuleBinary, &Err)) << Err;
  BinReq.ModuleText.clear();

  // Two option sets per codec: one miss and one hit on each entry.
  for (const AllocatorOptions &Options :
       {improvedOptions(), baseChaitinOptions()}) {
    TextReq.Options = BinReq.Options = Options;
    expectServedLikeInProcess(C, TextReq, TextReq.ModuleText, "text");
    expectServedLikeInProcess(C, BinReq, TextReq.ModuleText, "binary");
  }
  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheModuleEntries));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheModuleMisses));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheModuleHits));
  std::size_t Charged = ModuleTier::charge(false, TextReq.ModuleText.size()) +
                        ModuleTier::charge(true, BinReq.ModuleBinary.size());
  EXPECT_EQ(static_cast<double>(Charged),
            Stats.count(telemetry::CacheModuleBytes));
}

TEST(ModuleTier, ModuleOverThePerEntryCapIsServedButNotRetained) {
  AllocRequest Request = proxyRequest("gcc");
  std::size_t Charge = ModuleTier::charge(false, Request.ModuleText.size());
  ServerConfig Config;
  // A tier of 8 * Charge - 8 bytes caps entries just below Charge.
  Config.CacheBytes = 8 * (8 * Charge - 8);
  LiveServer S(Config);
  ServiceClient C = S.connect();
  for (const AllocatorOptions &Options : {improvedOptions(), cbhOptions()}) {
    Request.Options = Options;
    expectServedLikeInProcess(C, Request, Request.ModuleText, "oversized");
  }
  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(2.0, Stats.count(telemetry::ServeResponsesOk));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheModuleMisses));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleHits));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleEntries));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleBytes));
}

TEST(ModuleTier, WarmModuleMissComputesNoLiveness) {
  // The gate of the shared cold path: a response miss on a module the
  // tier holds seeds round 1 from the entry's baseline liveness and never
  // runs the liveness fixpoint.
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("sc");
  Request.Config = RegisterConfig(9, 7, 3, 3);
  expectServedLikeInProcess(C, Request, Request.ModuleText, "cold module");

  Request.Config = RegisterConfig(6, 4, 2, 2);
  AllocResponse Warm;
  expectServedLikeInProcess(C, Request, Request.ModuleText, "warm module",
                            &Warm);
  EXPECT_GT(Warm.Telemetry.count(telemetry::Functions), 0.0);
  EXPECT_EQ(0.0, Warm.Telemetry.count(telemetry::LivenessComputes));
  EXPECT_EQ(1.0, serverStats(C).count(telemetry::CacheModuleHits));
}

TEST(ModuleTier, SameBudgetReplaysRound1CoalescingAndSaysSoInStats) {
  // Two requests on one held module, with other allocators and caller/
  // callee splits but the same register totals (12 Int, 10 Float): the
  // second replays every function's recorded round-1 coalescing. Both are
  // served exactly as cache-less in-process allocation; STATS counts the
  // lookups, and no response carries them.
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("sc");
  std::unique_ptr<Module> Proxy = buildSpecProxy("sc");
  unsigned Bodies = 0;
  for (const auto &F : Proxy->functions())
    Bodies += F->isDeclaration() ? 0 : 1;
  ASSERT_GT(Bodies, 0u);

  Request.Config = RegisterConfig(9, 7, 3, 3);
  AllocResponse First;
  expectServedLikeInProcess(C, Request, Request.ModuleText, "recording",
                            &First);
  Request.Config = RegisterConfig(8, 6, 4, 4);
  Request.Options = cbhOptions();
  Request.Mode = FrequencyMode::Static;
  AllocResponse Second;
  expectServedLikeInProcess(C, Request, Request.ModuleText, "replaying",
                            &Second);

  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(Bodies, Stats.count(telemetry::CacheModuleCoalesceMisses));
  EXPECT_EQ(Bodies, Stats.count(telemetry::CacheModuleCoalesceHits));
  for (const AllocResponse *R : {&First, &Second}) {
    EXPECT_EQ(0u, R->Telemetry.Counters.count(
                      telemetry::CacheModuleCoalesceHits));
    EXPECT_EQ(0u, R->Telemetry.Counters.count(
                      telemetry::SchedAnalysisCacheCoalesceHits));
  }
}

/// Register configurations of 128 distinct (Int, Float) totals, none of
/// them in the standard sweep's band of small files: a calling-convention
/// search's traffic on one module.
std::vector<RegisterConfig> manyBudgets() {
  std::vector<RegisterConfig> Configs;
  for (unsigned Int = 20; Int < 52; ++Int)
    for (unsigned Float = 12; Float < 16; ++Float)
      Configs.emplace_back(Int, Float, 2, 2);
  return Configs;
}

TEST(ModuleTier, ManyBudgetsFillOnlyTheEntrysMemoShare) {
  // One held module under 128 register budgets: the entry's coalescing
  // memo stops at a quarter of its charge, every request is still served
  // exactly as in-process allocation, and a budget recorded before the
  // memo filled still replays while one seen after it coalesces anew.
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("sc");
  std::unique_ptr<Module> Proxy = buildSpecProxy("sc");
  double Bodies = 0;
  for (const auto &F : Proxy->functions())
    Bodies += F->isDeclaration() ? 0 : 1;
  const std::vector<RegisterConfig> Budgets = manyBudgets();
  for (std::size_t I = 0; I < Budgets.size(); ++I) {
    Request.Config = Budgets[I];
    expectServedLikeInProcess(C, Request, Request.ModuleText,
                              "budget " + std::to_string(I));
  }
  const std::size_t Charge =
      ModuleTier::charge(false, Request.ModuleText.size());
  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(static_cast<double>(Charge),
            Stats.count(telemetry::CacheModuleBytes));
  const double Memo = Stats.count(telemetry::CacheModuleMemoBytes);
  EXPECT_GT(Memo, 0.0);
  EXPECT_LE(Memo, static_cast<double>(Charge / ModuleTier::MemoShare));
  EXPECT_EQ(Bodies * Budgets.size(),
            Stats.count(telemetry::CacheModuleCoalesceMisses))
      << "every budget is new";

  // Another allocator on the first budget replays; on the last budget,
  // which found the memo full, it coalesces again, storing nothing.
  Request.Options = cbhOptions();
  Request.Config = Budgets.front();
  expectServedLikeInProcess(C, Request, Request.ModuleText, "first again");
  Request.Config = Budgets.back();
  expectServedLikeInProcess(C, Request, Request.ModuleText, "last again");
  TelemetrySnapshot After = serverStats(C);
  EXPECT_EQ(Stats.count(telemetry::CacheModuleCoalesceHits) + Bodies,
            After.count(telemetry::CacheModuleCoalesceHits));
  EXPECT_EQ(Stats.count(telemetry::CacheModuleCoalesceMisses) + Bodies,
            After.count(telemetry::CacheModuleCoalesceMisses));
  EXPECT_EQ(Memo, After.count(telemetry::CacheModuleMemoBytes));
}

#ifdef __GLIBC__
TEST(ModuleTier, ChargeCoversTheEntrysHeapUnderManyBudgets) {
  // The tier's bound in heap bytes: one entry (key bytes, parsed module,
  // frequencies, baseline liveness and the coalescing memo), allocated
  // under 128 budgets by five allocators, holds no more of the heap than
  // its charge. Measured with glibc's in-use byte count on this one
  // thread; a sanitizer's allocator bypasses that count, and the check
  // then holds trivially.
  const std::string Text = printed(*buildSpecProxy("sc"));
  const std::vector<RegisterConfig> Budgets = manyBudgets();
  auto AllocateAll = [&](ModuleTier::Entry &E) {
    for (const RegisterConfig &Config : Budgets)
      for (const AllocatorOptions &Options : paperAllocators()) {
        SourceAllocation Job(*E.Program, &E.Analyses);
        Telemetry T;
        Job.run(Config, Options, FrequencyMode::Profile, /*Jobs=*/1, T);
      }
  };
  {
    // Warm-up: every allocation-time buffer that outlives a run (the
    // thread's scratch arena) grows to size outside the measurement.
    ModuleTier::Entry Warm(static_cast<std::size_t>(-1));
    Warm.Program = parseModule(Text).M;
    AllocateAll(Warm);
  }

  const std::size_t Before = mallinfo2().uordblks;
  ModuleTier Tier(64u << 20);
  std::shared_ptr<ModuleTier::Entry> E;
  {
    ParseResult PR = parseModule(Text);
    ASSERT_TRUE(PR.ok());
    E = Tier.insert(hash64(Text), false, Text, std::move(PR.M));
  }
  AllocateAll(*E);
  const std::size_t Held = mallinfo2().uordblks - Before;
  EXPECT_LE(Held, ModuleTier::charge(false, Text.size()));
  EXPECT_LE(Tier.stats().MemoBytes,
            ModuleTier::charge(false, Text.size()) / ModuleTier::MemoShare);
}
#endif

TEST(ModuleTier, DisabledCachesDisableTheTier) {
  ServerConfig Config;
  Config.CacheBytes = 0;
  LiveServer S(Config);
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  for (int I = 0; I < 2; ++I)
    expectServedLikeInProcess(C, Request, Request.ModuleText, "cache off");
  TelemetrySnapshot Stats = serverStats(C);
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleHits));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleMisses));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheModuleEntries));
}

} // namespace
