//===- service/Server.h - Networked allocation service ----------*- C++ -*-===//
///
/// \file
/// A long-lived allocation daemon: keeps warm engine substrate resident
/// and feeds it a stream of allocation requests arriving over a
/// Unix-domain or loopback-TCP socket, speaking the framed protocol of
/// service/WireProtocol.h.
///
/// Architecture (one box per thread kind):
///
///   event loop (ONE thread, epoll) ──> content-addressed cache
///     accepts, reassembles frames,       │hit          │miss
///     parses request headers ◄── responses ◄┘          │
///     SHED / errors written in line              bounded queue
///                                       PoolThreads workers, each
///                                       pulling ONE request:
///                                         module tier ─hit─> clone
///                                           │miss
///                                         parse, verify, (retain)
///                                       allocate, encode, publish
///
/// - **Connections.** service/EventLoop.h multiplexes every client over
///   one epoll thread: connection count is decoupled from thread count,
///   so ten thousand mostly-idle connections cost table entries, not
///   stacks (Service.ManyIdleConnectionsPlusActiveWork parks 5,000).
///   Frame reassembly, write buffering, and both deadline classes (the
///   mid-frame budget and the slow-client write budget) live there.
/// - **Admission.** The loop's frame handler parses the request header
///   (textual v1 or binary v2; service/BinaryCodec.h), computes the cache
///   key, and either answers in line (hit, malformed header, SHED,
///   draining) or enqueues and marks the connection in-flight. The module
///   itself is NOT parsed on the loop: the loop is the one serial stage
///   every request crosses, so module parse and IR verification run on
///   the worker that allocates it. A malformed module is answered
///   Error("malformed") by that worker and keeps its connection, and a
///   hostile 16 MiB module stalls one worker, not every connection.
/// - **Caching.** Allocation is deterministic (the oracle lattice proves
///   bit-identity across every engine configuration), so each response is
///   a pure function of (module bytes, canonical options, config, mode).
///   Repeat requests are served straight from the AllocationCache — no
///   parse, no IR verify, no engine run. Each entry is the encoded payload
///   of the cold response, so a hit copies stored bytes into its reply:
///   byte-identical to the cold run by construction, with no response
///   rebuilt or re-encoded.
/// - **Module tier.** Behind the response cache, service/ModuleTier.h
///   keeps recently seen modules parsed and verified, each with its own
///   analysis cache. A response miss on a module the tier holds skips
///   parse, verify, frequency analysis and baseline liveness: the worker
///   allocates a clone through harness/Experiment.h SourceAllocation, the
///   same step an experiment-grid point runs. A module the tier does not
///   retain (over its per-entry cap, or the tier is off) is allocated in
///   place by its worker, its sole owner. The tier gets an eighth of
///   CacheBytes, the response cache the rest.
/// - **Workers.** PoolThreads workers share the one queue and each pulls
///   one request at a time, so no queued request waits behind a slow
///   neighbour while a worker is idle (per-request cost varies ~20x across
///   modules). Admission (tier lookup, clone or parse and verify) is timed
///   as serve.admit; the allocation through the response encode as
///   serve.batch. Requests run at Jobs=1 (the wire cannot set Jobs or any
///   other execution field), so the engine uses a call-local scratch arena
///   and needs no thread pool.
/// - **Backpressure.** The queue holds at most QueueCapacity requests;
///   when full an arriving request is answered immediately with an
///   explicit SHED frame instead of being buffered without limit.
/// - **Deadlines.** A request may carry `deadline-ms`; if it is still
///   queued when the deadline expires it is answered with an Error frame
///   ("deadline") instead of occupying the engine.
/// - **Graceful degradation / drain.** requestDrain() (the daemon wires
///   SIGTERM to it) stops accepting, drops connections owed nothing,
///   finishes in-flight work, flushes those responses, then closes
///   everything; wait() returns once the server is fully quiesced.
///   Workers exit once the loop confirms admissions are closed and the
///   queue is empty — all enqueues happen on the loop thread, so that
///   confirmation is a simple happens-before, not a count of connections.
///
/// A STATS request returns the server-wide telemetry: "serve."
/// operational counters, the "cache." namespace (response cache and, as
/// "cache.module_*", the module tier), plus the merged engine telemetry
/// of everything allocated. ServerTestHooks mirrors the fuzz subsystem's
/// InjectedFault: tests force queue overflow, mid-request worker failure,
/// and worker stalls without needing to win races.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_SERVER_H
#define CCRA_SERVICE_SERVER_H

#include "service/AllocationCache.h"
#include "service/EventLoop.h"
#include "service/ModuleTier.h"
#include "service/WireProtocol.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ccra {

struct ServerConfig {
  /// Exactly one transport: a Unix-domain socket path, or (when UnixPath
  /// is empty) loopback TCP on TcpPort (0 = ephemeral; boundPort()).
  std::string UnixPath;
  int TcpPort = 0;

  unsigned PoolThreads = 0;    ///< worker threads (0 = hardware)
  unsigned QueueCapacity = 64; ///< queued requests beyond which SHED
  std::size_t MaxPayloadBytes = 16u << 20;
  int WriteTimeoutMs = 5000; ///< slow-client response write budget
  int AcceptBacklog = 64;

  /// Budget of both caches: the module tier gets an eighth, the response
  /// cache the rest; 0 disables both.
  std::size_t CacheBytes = 64u << 20;
};

/// Test-only fault injection (all hooks optional, called concurrently).
struct ServerTestHooks {
  /// Treat the queue as full for this enqueue → SHED response.
  std::function<bool()> ForceQueueOverflow;
  /// Fail this request mid-worker → Error("fault") response; every other
  /// request is served normally.
  std::function<bool(const AllocRequest &)> FailRequest;
  /// Called by a worker that found the queue non-empty, before it pops a
  /// request (tests stall here to make deadlines expire deterministically).
  std::function<void()> BeforeBatch;
};

class AllocationServer {
public:
  explicit AllocationServer(ServerConfig Config,
                            ServerTestHooks Hooks = ServerTestHooks());
  ~AllocationServer();

  AllocationServer(const AllocationServer &) = delete;
  AllocationServer &operator=(const AllocationServer &) = delete;

  /// Binds the transport and starts the event loop and worker threads.
  /// Returns false with a diagnostic on bind failure.
  bool start(std::string *Err);

  /// Begins graceful drain (idempotent, any thread, including after
  /// SIGTERM via a self-pipe in the daemon): stop accepting, finish
  /// in-flight work, flush responses, close. Does not block.
  void requestDrain();

  /// Blocks until the server has fully quiesced (all threads joined). The
  /// destructor calls requestDrain() + wait() if still running.
  void wait();

  bool draining() const { return Draining.load(); }

  /// TCP only: the port actually bound (for TcpPort = 0).
  int boundPort() const { return BoundPort; }

  /// Server-wide telemetry: "serve." counters, the "cache." namespace
  /// (both tiers), and merged engine telemetry. What a STATS request
  /// returns.
  TelemetrySnapshot stats() const;

private:
  struct PendingRequest {
    AllocRequest Request;
    /// Arrived as AllocRequestV2: the module is Request.ModuleBinary.
    bool Binary = false;
    /// allocationCacheKey of the request; empty when the cache is off.
    /// Computed once at admission, reused for the publish.
    std::string CacheKey;
    /// fnv1a64 of the module bytes: the module tier's key.
    std::uint64_t ModuleHash = 0;
    std::chrono::steady_clock::time_point Arrival;
    /// The event-loop connection awaiting this response; the worker
    /// answers with Loop.postResponse(ConnId, ...).
    std::uint64_t ConnId = 0;
  };

  /// The event loop's frame handler: everything between a reassembled
  /// frame and a queued PendingRequest (runs on the loop thread).
  FrameDisposition handleFrame(std::uint64_t ConnId, Frame &In);
  void workerLoop();
  /// Answers \p P: admission checks, module-tier lookup (or parse and
  /// verify), allocation, response encode, cache publish of those bytes. Every path posts
  /// exactly one response, as its last step; an exception means nothing
  /// was posted.
  void serve(PendingRequest &P);
  Frame helloFrame() const;
  /// Wakes every worker (drain signal).
  void notifyWorkers();

  ServerConfig Config;
  ServerTestHooks Hooks;
  Telemetry Telem;

  EventLoop Loop;
  mutable std::mutex QueueMutex;
  std::condition_variable QueueReady;
  std::deque<std::unique_ptr<PendingRequest>> Queue;
  std::vector<std::thread> Workers;
  AllocationCache Cache;
  ModuleTier Tier;
  int BoundPort = -1;

  std::atomic<bool> Started{false};
  std::atomic<bool> Draining{false};
  /// Set on the loop thread once drain processing is done — after which
  /// no enqueue can ever happen again (they all run on that thread).
  /// Workers exit when this is set and the queue is empty.
  std::atomic<bool> AdmissionsClosed{false};
};

} // namespace ccra

#endif // CCRA_SERVICE_SERVER_H
