//===- service/EventLoop.h - epoll connection reactor -----------*- C++ -*-===//
///
/// \file
/// The allocation server's connection engine: ONE thread multiplexing
/// every client connection over epoll, in place of the former
/// thread-per-connection model. Connection count is decoupled from thread
/// count — ten thousand mostly-idle connections cost table entries and
/// kernel fds, not stacks and schedulers — which is what lets the serving
/// benches soak the daemon at C10k.
///
/// Responsibilities split:
///
/// - The **loop** owns transport and framing: non-blocking accept, the
///   per-connection read state machine reassembling frames incrementally
///   (header, then payload, validated by the same decodeFrameHeader the
///   blocking reader uses), the write state machine (a queue of finished,
///   shared frames sent by reference — immediately, then on EPOLLOUT),
///   and both deadline classes — a mid-frame budget so a torn header
///   cannot park a connection forever, and a write budget so a client
///   that stops reading loses its connection, never the loop.
/// - The **server** (via FrameHandler, called on the loop thread) owns
///   payloads and policy: parse, cache lookup, admission to the request
///   queue, SHED, drain refusal. A handler that admits work returns
///   InFlight; a worker later hands the finished frame back with
///   postResponse(), the loop's cross-thread completion path (mutex queue
///   + eventfd doorbell). Every frame the loop sends arrives encoded
///   (service/WireProtocol.h WireFrame) — by a worker, the response cache
///   or the handler — and is never re-encoded or copied; the loop encodes
///   only the errors it raises itself.
///
/// One request per connection is in flight at a time, exactly like the
/// thread-per-connection server this replaces: while a connection is
/// InFlight its EPOLLIN interest is dropped, so pipelined bytes sit in the
/// kernel buffer (and whatever the loop already buffered) until the
/// response flushes. That keeps per-connection ordering trivial and the
/// bounded queues the sole backpressure point.
///
/// Drain: requestDrain() (any thread) rings the doorbell; the loop closes
/// the listener, drops every connection with no response owed (idle,
/// mid-frame, or mid-garbage alike — the peer was promised nothing), marks
/// the rest close-after-flush, then invokes the OnDrainStarted callback so
/// the server can close admissions AFTER the last possible enqueue (all
/// enqueues happen on the loop thread, so the callback ordering is the
/// proof). The loop exits once draining and the connection table is empty.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_EVENTLOOP_H
#define CCRA_SERVICE_EVENTLOOP_H

#include "service/WireProtocol.h"
#include "support/Sockets.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ccra {

class Telemetry;

/// What the frame handler tells the loop to do with a well-formed frame.
enum class FrameAction {
  /// Write Response, keep the connection reading.
  Reply,
  /// Write Response, close once it flushes (protocol errors that desync
  /// the stream, drain refusals).
  ReplyClose,
  /// The request was admitted to a queue; suspend reads until the owner
  /// hands the response back via postResponse().
  InFlight,
  /// Close immediately; nothing to write.
  Close,
};

struct FrameDisposition {
  FrameAction Action = FrameAction::Close;
  WireFrame Response; ///< null for InFlight and Close
};

struct EventLoopConfig {
  std::size_t MaxPayloadBytes = 16u << 20;
  /// Budget for flushing a response to a slow client.
  int WriteTimeoutMs = 5000;
  /// Budget for the rest of a frame once its first byte arrived.
  int FrameTimeoutMs = 30000;
  /// Deadline sweep granularity (timerfd period).
  int SweepIntervalMs = 100;
};

class EventLoop {
public:
  /// Called on the loop thread for every well-formed frame.
  using FrameHandler =
      std::function<FrameDisposition(std::uint64_t ConnId, Frame &In)>;

  /// \p Telem receives the transport-level counters (connections, stream
  /// malformations, write timeouts); payload-level counters stay with the
  /// frame handler.
  EventLoop(EventLoopConfig Config, Telemetry *Telem);
  ~EventLoop();

  EventLoop(const EventLoop &) = delete;
  EventLoop &operator=(const EventLoop &) = delete;

  /// Takes ownership of the bound listener and starts the loop thread.
  /// \p Hello is written to every accepted connection. \p OnDrainStarted
  /// runs on the loop thread after drain processing (see file comment).
  bool start(ListenSocket Listener, WireFrame Hello, FrameHandler OnFrame,
             std::function<void()> OnDrainStarted, std::string *Err);

  /// Thread-safe, idempotent, non-blocking; see the file comment.
  void requestDrain();

  /// Joins the loop thread (after requestDrain(); returns immediately if
  /// never started).
  void wait();

  /// Thread-safe: hands the response for an InFlight connection back to
  /// the loop. If the connection died meanwhile the frame is discarded —
  /// the caller must not care (the old server's write-to-dead-peer EPIPE,
  /// one layer earlier).
  void postResponse(std::uint64_t ConnId, WireFrame Response);

  /// Gauge: connections currently in the table (loop-thread maintained,
  /// sampled by STATS from other threads).
  std::size_t openConnections() const { return OpenConns.load(); }

private:
  struct Conn {
    Socket Sock;
    std::string In;       ///< reassembly buffer (unparsed stream bytes)
    /// Frames to send, in order; Out[OutHead] is the one being sent, and
    /// OutPos bytes of it are gone. Sent frames are released at once.
    std::vector<WireFrame> Out;
    std::size_t OutHead = 0;
    std::size_t OutPos = 0;
    bool writing() const { return OutHead < Out.size(); }
    bool Busy = false;           ///< one InFlight request
    bool CloseAfterFlush = false;
    bool ReadArmed = false;      ///< current epoll interest
    bool WriteArmed = false;
    bool MidFrame = false;       ///< FrameDeadline is live
    std::chrono::steady_clock::time_point FrameDeadline{};
    std::chrono::steady_clock::time_point WriteDeadline{};
  };

  void run();
  void acceptReady();
  void handleConnEvent(std::uint64_t Id, const EpollEvent &Ev);
  void readReady(std::uint64_t Id);
  /// Runs the frame state machine over Conn::In until it needs more bytes,
  /// the connection goes Busy/closed, or a stream error ends it.
  void processInput(std::uint64_t Id);
  /// Queues \p F and flushes as much as the socket takes.
  void queueWrite(std::uint64_t Id, WireFrame F);
  void flushWrites(std::uint64_t Id);
  void updateInterest(std::uint64_t Id);
  void sweepDeadlines();
  void handleWake();
  void beginDrain();
  void closeConn(std::uint64_t Id);

  EventLoopConfig Config;
  Telemetry *Telem;

  ListenSocket Listener;
  WireFrame Hello;
  FrameHandler OnFrame;
  std::function<void()> OnDrainStarted;

  EpollHandle Ep;
  WakeEvent Wake;
  TimerFd Sweep;
  std::thread LoopThread;

  /// Loop-thread state. Connection ids start above the reserved sentinel
  /// ids of the listener / doorbell / timer registrations.
  std::unordered_map<std::uint64_t, Conn> Conns;
  std::uint64_t NextConnId = 16;
  bool Draining = false;
  /// Listener EPOLLIN dropped after accept() failed on fd exhaustion
  /// (EMFILE/ENFILE); the sweep timer re-arms it. Keeping the listener
  /// armed would busy-spin: level-triggered epoll re-reports it forever.
  bool ListenerDisarmed = false;

  std::atomic<bool> Started{false};
  std::atomic<bool> DrainRequested{false};
  std::atomic<std::size_t> OpenConns{0};

  std::mutex CompletionMutex;
  std::vector<std::pair<std::uint64_t, WireFrame>> Completions;
  /// True while a completion wakeup is already in flight. postResponse
  /// only writes the doorbell eventfd on the false->true transition; the
  /// loop clears the flag before swapping Completions out, so a post that
  /// lands after the swap re-arms it. Without this, every response pays a
  /// write(2) that makes the loop thread runnable — on a single-core host
  /// the kernel preempts the publishing worker at that syscall, turning
  /// each post into a forced scheduling round trip.
  std::atomic<bool> WakePending{false};
};

} // namespace ccra

#endif // CCRA_SERVICE_EVENTLOOP_H
