//===- service/Server.cpp -------------------------------------------------===//

#include "service/Server.h"

#include "harness/Experiment.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "service/BinaryCodec.h"
#include "support/BuildInfo.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <optional>

using namespace ccra;

namespace {

/// How often parked workers re-check the drain flag. Short enough
/// that SIGTERM drains promptly, long enough to stay off the profiles.
constexpr int PollIntervalMs = 100;
/// Total budget for reading the rest of a frame once its first byte
/// arrived. Generous: a legitimate client streams a 16 MiB module well
/// inside this; only a stalled peer trips it.
constexpr int FrameReadTimeoutMs = 30000;

WireFrame errorFrame(const std::string &Code, const std::string &Message) {
  return encodeWireFrame({FrameType::Error, encodeError({Code, Message})});
}

FrameDisposition reply(WireFrame F) {
  return {FrameAction::Reply, std::move(F)};
}

} // namespace

AllocationServer::AllocationServer(ServerConfig Config, ServerTestHooks Hooks)
    : Config(std::move(Config)), Hooks(std::move(Hooks)),
      Loop(EventLoopConfig{this->Config.MaxPayloadBytes,
                           this->Config.WriteTimeoutMs, FrameReadTimeoutMs,
                           PollIntervalMs},
           &Telem),
      Cache(this->Config.CacheBytes - this->Config.CacheBytes / 8),
      Tier(this->Config.CacheBytes / 8) {}

AllocationServer::~AllocationServer() {
  requestDrain();
  wait();
}

bool AllocationServer::start(std::string *Err) {
  if (Started.load()) {
    if (Err)
      *Err = "server already started";
    return false;
  }
  ListenSocket Listener;
  if (!Config.UnixPath.empty())
    Listener = ListenSocket::listenUnix(Config.UnixPath, Config.AcceptBacklog,
                                        Err);
  else
    Listener = ListenSocket::listenTcp(Config.TcpPort, Config.AcceptBacklog,
                                       Err);
  if (!Listener.valid())
    return false;
  BoundPort = Listener.boundPort();

  if (!Loop.start(
          std::move(Listener), helloFrame(),
          [this](std::uint64_t ConnId, Frame &In) {
            return handleFrame(ConnId, In);
          },
          [this] {
            // Runs on the loop thread after drain processing: every
            // enqueue also runs there, so once this flag is visible the
            // queue can only shrink.
            AdmissionsClosed.store(true);
            notifyWorkers();
          },
          Err))
    return false;

  Started.store(true);
  unsigned TotalThreads = Config.PoolThreads ? Config.PoolThreads
                                             : ThreadPool::defaultParallelism();
  for (unsigned I = 0; I < TotalThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  return true;
}

void AllocationServer::notifyWorkers() {
  { std::lock_guard<std::mutex> Lock(QueueMutex); }
  QueueReady.notify_all();
}

void AllocationServer::requestDrain() {
  Draining.store(true);
  Loop.requestDrain();
  notifyWorkers();
}

void AllocationServer::wait() {
  Loop.wait();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
}

TelemetrySnapshot AllocationServer::stats() const {
  TelemetrySnapshot S = Telem.snapshot();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    S.set(telemetry::ServeQueueDepth, static_cast<double>(Queue.size()));
  }
  S.set(telemetry::ServeOpenConnections,
        static_cast<double>(Loop.openConnections()));

  AllocationCacheStats CS = Cache.stats();
  S.set(telemetry::CacheHits, static_cast<double>(CS.Hits));
  S.set(telemetry::CacheMisses, static_cast<double>(CS.Misses));
  S.set(telemetry::CacheEvictions, static_cast<double>(CS.Evictions));
  S.set(telemetry::CacheBytes, static_cast<double>(CS.Bytes));
  S.set(telemetry::CacheInsertions, static_cast<double>(CS.Insertions));
  S.set(telemetry::CacheModules, static_cast<double>(CS.Modules));

  ModuleTierStats TS = Tier.stats();
  S.set(telemetry::CacheModuleHits, static_cast<double>(TS.Hits));
  S.set(telemetry::CacheModuleMisses, static_cast<double>(TS.Misses));
  S.set(telemetry::CacheModuleEvictions, static_cast<double>(TS.Evictions));
  S.set(telemetry::CacheModuleEntries, static_cast<double>(TS.Entries));
  S.set(telemetry::CacheModuleBytes, static_cast<double>(TS.Bytes));
  S.set(telemetry::CacheModuleMemoBytes, static_cast<double>(TS.MemoBytes));
  return S;
}

WireFrame AllocationServer::helloFrame() const {
  HelloInfo H;
  H.ServerInfo = buildInfoString();
  H.Protocol = WireVersion;
  H.MaxPayloadBytes = Config.MaxPayloadBytes;
  H.QueueCapacity = Config.QueueCapacity;
  H.CacheEnabled = Cache.enabled();
  H.MaxCodec = WireMaxCodec;
  return encodeWireFrame({FrameType::Hello, encodeHello(H)});
}

FrameDisposition AllocationServer::handleFrame(std::uint64_t ConnId,
                                               Frame &In) {
  std::string Err;
  if (In.Type == FrameType::StatsRequest) {
    Telem.addCount(telemetry::ServeStatsRequests);
    return reply(
        encodeWireFrame({FrameType::StatsResponse, stats().toJson()}));
  }
  if (In.Type != FrameType::AllocRequest &&
      In.Type != FrameType::AllocRequestV2) {
    // Well-formed frame of a kind only servers send; protocol misuse, but
    // the stream is intact, so answer and keep the connection.
    return reply(errorFrame("malformed", "unexpected frame type"));
  }

  Telem.addCount(telemetry::ServeRequests);
  auto Pending = std::make_unique<PendingRequest>();
  Pending->Arrival = std::chrono::steady_clock::now();
  Pending->ConnId = ConnId;
  Pending->Binary = In.Type == FrameType::AllocRequestV2;
  bool ParseOk = Pending->Binary
                     ? parseAllocRequestV2(In.Payload, Pending->Request, &Err)
                     : parseAllocRequest(In.Payload, Pending->Request, &Err);
  if (!ParseOk) {
    Telem.addCount(telemetry::ServeMalformed);
    return reply(errorFrame("malformed", Err));
  }

  if (Draining.load()) {
    Telem.addCount(telemetry::ServeDraining);
    return {FrameAction::ReplyClose,
            errorFrame("draining", "server is shutting down")};
  }

  // Cache front: a hit sends the stored frame itself and skips module
  // parse, IR verification, queueing, the engine and the encode entirely.
  // Safe without verification — an entry only exists because the same
  // byte-identical request once parsed, verified, and allocated.
  if (Cache.enabled()) {
    Pending->CacheKey = allocationCacheKey(Pending->Request);
    Pending->KeyHash = hash64(Pending->CacheKey);
    if (WireFrame Cached = Cache.lookup(Pending->KeyHash, Pending->CacheKey)) {
      Telem.addCount(telemetry::ServeResponsesOk);
      return reply(std::move(Cached));
    }
  }

  Pending->ModuleHash = hash64(Pending->Binary ? Pending->Request.ModuleBinary
                                               : Pending->Request.ModuleText);

  // Admission control: bounded queue, explicit SHED on overflow.
  bool Shed = false;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Shed = Queue.size() >= Config.QueueCapacity ||
           (Hooks.ForceQueueOverflow && Hooks.ForceQueueOverflow());
    if (!Shed) {
      Queue.push_back(std::move(Pending));
      Telem.noteMax(telemetry::ServePeakQueue,
                    static_cast<double>(Queue.size()));
    }
  }
  if (Shed) {
    Telem.addCount(telemetry::ServeShed);
    return reply(encodeWireFrame(
        {FrameType::Shed, "queue full (capacity " +
                              std::to_string(Config.QueueCapacity) +
                              "); retry later"}));
  }
  QueueReady.notify_one();

  // A worker always answers every queued request, so an InFlight
  // connection is never stranded: the response arrives via postResponse
  // and the loop resumes (or, during drain, closes) the connection.
  return {FrameAction::InFlight, nullptr};
}

void AllocationServer::workerLoop() {
  for (;;) {
    std::unique_ptr<PendingRequest> Taken;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueReady.wait_for(
          Lock, std::chrono::milliseconds(PollIntervalMs),
          [&] { return !Queue.empty() || AdmissionsClosed.load(); });
      if (Hooks.BeforeBatch && !Queue.empty()) {
        // Tests stall here (queue untouched) to expire deadlines or pile
        // up overflow deterministically. Another worker may empty the
        // queue meanwhile, so it is re-checked below.
        Lock.unlock();
        Hooks.BeforeBatch();
        Lock.lock();
      }
      if (Queue.empty()) {
        // AdmissionsClosed is set on the loop thread after its drain
        // processing, and every enqueue happens on that same thread —
        // so empty-after-closed is a stable exit, not a race window.
        if (Draining.load() && AdmissionsClosed.load())
          return;
        continue;
      }
      Taken = std::move(Queue.front());
      Queue.pop_front();
    }
    try {
      serve(*Taken);
    } catch (const std::exception &E) {
      // Graceful degradation: a request whose parse, engine or response
      // build threw answers "internal" instead of taking the daemon down.
      // serve() posts only as its last step, so nothing was posted yet.
      Loop.postResponse(Taken->ConnId, errorFrame("internal", E.what()));
    }
  }
}

void AllocationServer::serve(PendingRequest &P) {
  // Admission checks first: expired deadlines and injected worker faults
  // are answered without occupying the engine.
  if (P.Request.DeadlineMs > 0 &&
      std::chrono::steady_clock::now() - P.Arrival >=
          std::chrono::milliseconds(P.Request.DeadlineMs)) {
    Telem.addCount(telemetry::ServeDeadlineMissed);
    Loop.postResponse(P.ConnId,
                      errorFrame("deadline",
                                 "request expired after " +
                                     std::to_string(P.Request.DeadlineMs) +
                                     " ms in queue"));
    return;
  }
  if (Hooks.FailRequest && Hooks.FailRequest(P.Request)) {
    Telem.addCount(telemetry::ServeWorkerFaults);
    Loop.postResponse(
        P.ConnId,
        errorFrame("fault", "worker failed while allocating this request"));
    return;
  }

  // Module admission. A module the tier holds is cloned: no parse, no
  // verify, and its frequencies, baseline liveness and round-1 coalescing
  // come from the entry's analysis cache. Otherwise binary modules decode straight into
  // IR (a bounds-checked byte walk, not a text parse) and the verifier runs
  // on both: decode guarantees structural sanity, not semantic
  // admissibility. A verified module the tier does not retain (over the
  // per-entry cap, or the tier is off) is allocated in place by this
  // worker, its sole owner.
  std::shared_ptr<ModuleTier::Entry> Entry;
  std::unique_ptr<Module> Owned;
  std::optional<SourceAllocation> Job;
  std::string Detail;
  {
    Telemetry::ScopedTimer Admit(&Telem, telemetry::ServeAdmitPhase);
    const std::string &Bytes =
        P.Binary ? P.Request.ModuleBinary : P.Request.ModuleText;
    Entry = Tier.lookup(P.ModuleHash, P.Binary, Bytes);
    if (!Entry) {
      std::vector<std::string> Errors;
      if (P.Binary) {
        std::string Err;
        Owned = decodeModuleBinary(Bytes, &Err);
        if (!Owned)
          Errors.push_back(Err);
      } else {
        ParseResult PR = parseModule(Bytes);
        if (PR.ok())
          Owned = std::move(PR.M);
        else
          Errors = std::move(PR.Errors);
      }
      if (Owned && !verifyModule(*Owned, &Errors))
        Owned.reset();
      for (const std::string &E : Errors)
        Detail += E + "\n";
      if (Owned && Tier.admits(P.Binary, Bytes.size()))
        Entry = Tier.insert(P.ModuleHash, P.Binary, Bytes, std::move(Owned));
    }
    if (Entry)
      Job.emplace(*Entry->Program, &Entry->Analyses);
    else if (Owned)
      Job.emplace(*Owned);
  }
  if (!Job) {
    Telem.addCount(telemetry::ServeMalformed);
    Loop.postResponse(P.ConnId,
                      errorFrame("malformed", "bad module:\n" + Detail));
    return;
  }

  // One batch per request, so serve.batch stays a per-request time of the
  // engine plus the response path.
  Telem.addCount(telemetry::ServeBatches);
  Telem.addCount(telemetry::ServeBatchedRequests);
  WireFrame Out;
  {
    Telemetry::ScopedTimer Timer(&Telem, telemetry::ServeBatchPhase);
    Telemetry EngineTelem;
    AllocationOutcome Outcome =
        Job->run(P.Request.Config, P.Request.Options, P.Request.Mode,
                 P.Request.Options.Jobs, &EngineTelem);
    if (!Outcome.ok()) {
      // The request's configuration is too small for its module: the
      // input's fault, answered like any other malformed request.
      Telem.addCount(telemetry::ServeMalformed);
      Loop.postResponse(P.ConnId, errorFrame("malformed", Outcome.Diagnostic));
      return;
    }
    const ModuleAllocationResult &Result = Outcome.Result;
    if (Entry) {
      // STATS only: a response carries no scheduling-dependent counter.
      Telem.addCount(telemetry::CacheModuleCoalesceHits,
                     static_cast<double>(Job->coalesceHits()));
      Telem.addCount(telemetry::CacheModuleCoalesceMisses,
                     static_cast<double>(Job->coalesceMisses()));
    }
    Module *M = &Job->module();

    AllocResponse Resp;
    Resp.Totals = Result.Totals;
    {
      Telemetry::ScopedTimer Render(&Telem, telemetry::ServeRenderPhase);
      for (const auto &F : M->functions()) {
        auto It = Result.PerFunction.find(F.get());
        if (F->isDeclaration() || It == Result.PerFunction.end())
          continue;
        const FunctionAllocation &FA = It->second;
        Resp.Functions.push_back({F->getName(), FA.Costs, FA.Rounds,
                                  FA.SpilledRanges, FA.VoluntarySpills,
                                  FA.CoalescedMoves, FA.CalleeRegsPaid});
      }
      printModule(*M, Resp.AllocatedIr);
    }

    Telem.merge(EngineTelem);
    Telem.addCount(telemetry::ServeResponsesOk);
    Resp.Telemetry = EngineTelem.snapshot();
    {
      Telemetry::ScopedTimer Encode(&Telem, telemetry::ServeEncodePhase);
      Out = encodeAllocResponseFrame(Resp);
    }
    // The cache stores this very frame, so a later hit is byte-identical
    // to this response by construction.
    if (!P.CacheKey.empty())
      Cache.insert(P.KeyHash, P.CacheKey, Out);
  }
  // Posted before the module (or clone) and results are freed, so the
  // release cost stays off the response's latency.
  Loop.postResponse(P.ConnId, std::move(Out));
}
