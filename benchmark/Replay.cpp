//===- benchmark/Replay.cpp - In-process replays with layer spans ---------===//
//
// The traced replays call the same public functions, in the same order, as
// the daemon's request path (service/Server.cpp handleFrame + runBatch) and
// as runExperiments at Jobs=1, with a span around each call. Engine phases
// come from the program's own Telemetry: it records durations, not instants,
// so those spans are laid out back to back inside the call that ran them,
// and nested timers (coalesce's build phases, color's simplify) become
// child spans, which turns them into self times.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/AnalysisCache.h"
#include "harness/Batch.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "service/AllocationCache.h"
#include "service/BinaryCodec.h"
#include "service/Server.h"
#include "service/WireProtocol.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace ccra;

namespace bench {

namespace {

/// Consecutive spans of one request sharing boundary instants: closing one
/// layer and opening the next is a single clock read, so the gaps left to
/// the root span are only the replay loop's own bookkeeping.
class Steps {
public:
  Steps(Tracer &T, std::int32_t Parent, std::uint32_t Request)
      : T(T), Parent(Parent), Request(Request) {}
  ~Steps() { end(); }

  std::int32_t next(const char *Name) {
    if (!T.enabled())
      return -1;
    double Now = T.nowUs();
    if (Open >= 0)
      T.Spans[Open].EndUs = Now;
    Open = T.add(Name, Now, Now, Parent, Request);
    return Open;
  }

  void end() {
    if (T.enabled() && Open >= 0)
      T.Spans[Open].EndUs = T.nowUs();
    Open = -1;
  }

private:
  Tracer &T;
  std::int32_t Parent;
  std::uint32_t Request;
  std::int32_t Open = -1;
};

/// Appends a span of \p Ms milliseconds at \p Cursor and advances it.
std::int32_t place(Tracer &T, const char *Name, double Ms, double &Cursor,
                   std::int32_t Parent, std::uint32_t Request) {
  double Start = Cursor;
  Cursor += Ms * 1000.0;
  return T.add(Name, Start, Cursor, Parent, Request);
}

/// The engine's phase timers of one allocation as spans under \p Parent,
/// starting at \p Cursor.
void engineSpans(Tracer &T, const TelemetrySnapshot &TS, double Cursor,
                 std::int32_t Parent, std::uint32_t Req) {
  std::int32_t Alloc =
      place(T, "regalloc.allocate", TS.timeMs(telemetry::AllocateTotal),
            Cursor, Parent, Req);
  Cursor = T.Spans[Alloc].StartUs;
  double Inner = Cursor;
  std::int32_t Coalesce = place(T, "regalloc.coalesce",
                                TS.timeMs(telemetry::CoalescePhase), Cursor,
                                Alloc, Req);
  place(T, "regalloc.build_ranges", TS.timeMs(telemetry::BuildRangesPhase),
        Inner, Coalesce, Req);
  place(T, "regalloc.build_graph", TS.timeMs(telemetry::BuildGraphPhase),
        Inner, Coalesce, Req);
  place(T, "regalloc.reconstruct", TS.timeMs(telemetry::ReconstructPhase),
        Cursor, Alloc, Req);
  Inner = Cursor;
  std::int32_t Color = place(T, "regalloc.color",
                             TS.timeMs(telemetry::ColorPhase), Cursor, Alloc,
                             Req);
  place(T, "regalloc.simplify", TS.timeMs(telemetry::AllocSimplifyPhase),
        Inner, Color, Req);
  place(T, "regalloc.spill_insert", TS.timeMs(telemetry::SpillInsertPhase),
        Cursor, Alloc, Req);
  place(T, "regalloc.materialize", TS.timeMs(telemetry::MaterializePhase),
        Cursor, Alloc, Req);
  place(T, "regalloc.verify", TS.timeMs(telemetry::VerifyPhase), Cursor,
        Alloc, Req);
}

void countEngine(const TelemetrySnapshot &TS, ReplayResult &Out) {
  Out.Functions += TS.count(telemetry::Functions);
  Out.Rounds += TS.count(telemetry::Rounds);
  Out.LivenessComputes += TS.count(telemetry::LivenessComputes);
}

/// One request through the daemon's sequence (Server.cpp handleFrame, then
/// runBatch and its publish step), as spans under \p Root when \p T is
/// enabled. The render step below copies the publish step's; \p Check
/// compares its output with the reference, so the copy cannot drift from
/// the daemon's unnoticed.
void serveOne(const std::string &In, bool Binary, const Expected &Ref,
              bool Check, AllocationCache &Cache, Tracer &T,
              std::int32_t Root, std::uint32_t Req, ReplayResult &Out) {
  Steps S(T, Root, Req);
  {
    // Everything the request owns lives in this block, so freeing it
    // happens inside the release span below.
    FrameHeader H;
    std::string Payload, Key, Frame;
    AllocRequest Request;
    AllocResponse Resp;
    std::unique_ptr<Module> M;
    std::vector<AllocationBatchResult> Results;

    // The event loop's reassembly (header, payload copy, checksum), then
    // the frame handler's request parse.
    S.next("service.wire.decode");
    bool Valid = decodeFrameHeader(
                     reinterpret_cast<const unsigned char *>(In.data()),
                     ServerConfig().MaxPayloadBytes, H) == FrameReadStatus::Ok;
    Payload.assign(In, WireHeaderSize, H.Length);
    Valid = Valid && wireChecksum(Payload) == H.Checksum &&
            (Binary ? parseAllocRequestV2(Payload, Request)
                    : parseAllocRequest(Payload, Request));
    S.next("service.cache.key");
    Key = allocationCacheKey(Request);
    S.next("service.cache.lookup");
    bool Hit = Cache.lookup(Key, Resp);
    if (!Hit) {
      S.next("ir.parse");
      M = Binary ? decodeModuleBinary(Request.ModuleBinary)
                 : parseModule(Request.ModuleText).M;
      S.next("ir.verify");
      Valid = Valid && M && verifyModule(*M, nullptr);
    }
    if (!Hit && Valid) {
      std::int32_t Batch = S.next("harness.batch");
      Results = runAllocationBatch(
          {{M.get(), Request.Config, Request.Options, Request.Mode}},
          nullptr);
      AllocationBatchResult &R = Results.front();

      S.next("ir.render");
      Resp.Totals = R.Result.Totals;
      std::string IrHeader = "module " + M->getName() + "\n";
      std::vector<AllocationCache::FunctionRecord> Records;
      Records.reserve(M->functions().size());
      for (const auto &F : M->functions()) {
        AllocationCache::FunctionRecord Rec;
        printFunction(*F, Rec.Ir);
        Rec.Ir += '\n';
        auto It = R.Result.PerFunction.find(F.get());
        if (!F->isDeclaration() && It != R.Result.PerFunction.end()) {
          const FunctionAllocation &FA = It->second;
          Rec.HasSummary = true;
          Rec.Summary = {F->getName(),       FA.Costs,
                         FA.Rounds,          FA.SpilledRanges,
                         FA.VoluntarySpills, FA.CoalescedMoves,
                         FA.CalleeRegsPaid};
          Resp.Functions.push_back(Rec.Summary);
        }
        Records.push_back(std::move(Rec));
      }
      Resp.AllocatedIr = IrHeader;
      for (const AllocationCache::FunctionRecord &Rec : Records)
        Resp.AllocatedIr += Rec.Ir;

      S.next("service.cache.insert");
      Cache.insert(Key, IrHeader, Resp.Totals, R.Telemetry,
                   std::move(Records));

      S.next("service.wire.encode");
      Resp.Telemetry = std::move(R.Telemetry);
      encodeFrame({FrameType::AllocResponse, encodeAllocResponse(Resp)},
                  Frame);

      if (T.enabled()) {
        double Cursor = T.Spans[Batch].StartUs;
        place(T, "analysis.freq",
              Resp.Telemetry.timeMs(telemetry::FreqComputePhase), Cursor,
              Batch, Req);
        engineSpans(T, Resp.Telemetry, Cursor, Batch, Req);
      }
      countEngine(Resp.Telemetry, Out);
    } else if (Hit) {
      S.next("service.wire.encode");
      encodeFrame({FrameType::AllocResponse, encodeAllocResponse(Resp)},
                  Frame);
    } else {
      ++Out.Mismatches;
    }
    if (Check && (Hit || Valid))
      Out.Mismatches += irHash(Resp.AllocatedIr) != Ref.IrHash ||
                        !(Resp.Totals == Ref.Totals);
    ++Out.Ops;
    Out.Hits += Hit;
    Out.RequestBytes += static_cast<double>(In.size());
    Out.ResponseBytes += static_cast<double>(Frame.size());
    S.next("service.server.release");
  }
}

} // namespace

ReplayResult replayServed(const Population &Pop,
                          const std::vector<std::uint32_t> &Order,
                          std::size_t Warm, bool Binary,
                          const std::vector<Expected> &Ref, bool Check,
                          Tracer &T) {
  // Request frames exactly as a client sends them, encoded before the
  // clock starts (one per distinct request).
  std::vector<std::string> Frames(Pop.Requests.size());
  for (std::uint32_t Index : Order) {
    if (!Frames[Index].empty())
      continue;
    const Request &R = Pop.Requests[Index];
    const Program &P = Pop.Programs[R.Program];
    AllocRequest Req;
    Req.Config = R.Config;
    Req.Options = R.Options;
    Req.Mode = R.Mode;
    if (Binary) {
      Req.ModuleBinary = P.Binary;
      encodeFrame({FrameType::AllocRequestV2, encodeAllocRequestV2(Req)},
                  Frames[Index]);
    } else {
      Req.ModuleText = P.Text;
      encodeFrame({FrameType::AllocRequest, encodeAllocRequest(Req)},
                  Frames[Index]);
    }
  }

  AllocationCache Cache(ServerConfig().CacheBytes);
  Tracer Off(false);
  ReplayResult Warmup;
  for (std::size_t Pos = 0; Pos < Warm; ++Pos)
    serveOne(Frames[Order[Pos]], Binary, Ref[Order[Pos]], Check, Cache, Off,
             -1, 0, Warmup);

  ReplayResult Out;
  Out.Mismatches = Warmup.Mismatches;
  T.Spans.reserve(T.Spans.size() + (Order.size() - Warm) * 20 + 1);
  auto Start = Clock::now();
  std::int32_t Root = T.enabled() ? T.add("replay", T.nowUs(), 0, -1, 0) : -1;
  for (std::size_t Pos = Warm; Pos < Order.size(); ++Pos)
    serveOne(Frames[Order[Pos]], Binary, Ref[Order[Pos]], Check, Cache, T,
             Root, static_cast<std::uint32_t>(Pos), Out);
  if (Root >= 0)
    T.Spans[Root].EndUs = T.nowUs();
  Out.WallSeconds = secondsSince(Start);
  return Out;
}

bool sameResult(const ExperimentResult &A, const ExperimentResult &B) {
  return A.Costs == B.Costs && A.SpilledRanges == B.SpilledRanges &&
         A.VoluntarySpills == B.VoluntarySpills &&
         A.CoalescedMoves == B.CoalescedMoves &&
         A.CalleeRegsPaid == B.CalleeRegsPaid && A.MaxRounds == B.MaxRounds &&
         A.Cycles == B.Cycles;
}

ReplayResult replayGrid(const std::vector<ExperimentSpec> &Specs,
                        const std::vector<ExperimentRun> &Ref, Tracer &T) {
  ModuleAnalysisCache Cache;
  ReplayResult Out;
  T.Spans.reserve(T.Spans.size() + Specs.size() * 16 + 1);
  auto Start = Clock::now();
  std::int32_t Root = T.enabled() ? T.add("replay", T.nowUs(), 0, -1, 0) : -1;
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    const ExperimentSpec &Spec = Specs[I];
    const std::uint32_t Req = static_cast<std::uint32_t>(I);
    Steps S(T, Root, Req);

    S.next("analysis.freq");
    Cache.frequencies(*Spec.Program, Spec.Mode);
    S.next("analysis.liveness");
    const auto &Fns = Spec.Program->functions();
    for (unsigned F = 0; F < Fns.size(); ++F)
      if (!Fns[F]->isDeclaration())
        Cache.baselineLiveness(*Spec.Program, F);
    std::int32_t Experiment = S.next("harness.experiment");
    ExperimentRun Run = runExperiment(Spec, &Cache, nullptr);
    S.end();

    if (T.enabled())
      engineSpans(T, Run.Telemetry, T.Spans[Experiment].StartUs, Experiment,
                  Req);
    countEngine(Run.Telemetry, Out);
    if (!sameResult(Run.Result, Ref[I].Result))
      ++Out.Mismatches;
    ++Out.Ops;
  }
  if (Root >= 0)
    T.Spans[Root].EndUs = T.nowUs();
  Out.WallSeconds = secondsSince(Start);
  return Out;
}

std::map<std::string, double> selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, double> Self;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Self[Spans[I].Name] += Spans[I].EndUs - Spans[I].StartUs - Covered[I];
  return Self;
}

bool writeTrace(const std::string &Path, const std::string &Workload,
                const std::vector<Span> &Spans) {
  // Chrome trace-event format (loads in Perfetto / chrome://tracing); the
  // span tree is kept in args.
  std::ofstream Out(Path);
  Out << "{\"otherData\":{\"workload\":\"" << Workload
      << "\"},\"traceEvents\":[";
  char Buf[256];
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    int N = std::snprintf(
        Buf, sizeof(Buf),
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
        "\"request\":%u}}",
        I ? "," : "", S.Name, S.StartUs, S.EndUs - S.StartUs, I, S.Parent,
        S.Request);
    Out.write(Buf, std::min<int>(N, sizeof(Buf) - 1));
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

} // namespace bench
