//===- support/Sockets.h - RAII sockets with deadlines ----------*- C++ -*-===//
///
/// \file
/// The transport layer under the allocation service: thin RAII wrappers
/// over POSIX stream sockets (Unix-domain and 127.0.0.1 TCP) with
/// poll-based deadline semantics on every blocking operation. The serving
/// stack needs deadlines everywhere — a slow client must not be able to
/// wedge a server thread on write, and a drained server must notice the
/// stop flag while parked in accept/read — so the primitive operations
/// here all take a timeout instead of blocking indefinitely.
///
/// Timeout convention: milliseconds; -1 blocks forever, 0 polls. For the
/// sendAll/recvAll loops the timeout is a *total* deadline for the whole
/// transfer, not per chunk.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_SOCKETS_H
#define CCRA_SUPPORT_SOCKETS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ccra {

/// Outcome of a timed transfer. Closed means the peer shut the stream down
/// cleanly mid-transfer (for recvAll: before the first byte too).
enum class IoStatus { Ok, Timeout, Closed, Error };

/// A connected stream socket (move-only; closes on destruction). The fd is
/// kept in O_NONBLOCK mode so the deadline bounds the actual transfer, not
/// just readiness — a peer that stops draining its receive buffer makes
/// send() return EAGAIN rather than blocking past the poll() deadline.
/// Writes never raise SIGPIPE — a dead peer surfaces as IoStatus::Error.
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  ~Socket() { close(); }

  Socket(Socket &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  Socket &operator=(Socket &&Other) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void close();
  /// Half-closes the write side: the peer reads EOF after the bytes
  /// already sent, and this end can still read its answer.
  bool shutdownWrite();

  /// Writes all \p Len bytes within \p TimeoutMs.
  IoStatus sendAll(const void *Data, std::size_t Len, int TimeoutMs,
                   std::string *Err = nullptr);
  /// Reads exactly \p Len bytes within \p TimeoutMs.
  IoStatus recvAll(void *Data, std::size_t Len, int TimeoutMs,
                   std::string *Err = nullptr);

  /// Single-shot non-blocking transfer primitives for event-loop callers
  /// that multiplex readiness themselves (epoll) instead of parking in
  /// poll(). Both return the bytes moved this call; 0 with Status == Ok
  /// means "would block, try again on the next readiness event". recvSome
  /// reports a clean peer close as Status == Closed.
  std::size_t sendSome(const void *Data, std::size_t Len, IoStatus &Status);
  std::size_t recvSome(void *Data, std::size_t Len, IoStatus &Status);

  /// Connects to a Unix-domain socket at \p Path.
  static Socket connectUnix(const std::string &Path, std::string *Err);
  /// Connects to 127.0.0.1:\p Port.
  static Socket connectTcp(int Port, std::string *Err);

private:
  int Fd = -1;
};

/// A listening socket (move-only). Closing a Unix listener unlinks its
/// path, so a drained server leaves no stale socket file behind.
class ListenSocket {
public:
  ListenSocket() = default;
  ~ListenSocket() { close(); }

  ListenSocket(ListenSocket &&Other) noexcept;
  ListenSocket &operator=(ListenSocket &&Other) noexcept;
  ListenSocket(const ListenSocket &) = delete;
  ListenSocket &operator=(const ListenSocket &) = delete;

  bool valid() const { return Fd >= 0; }
  void close();

  /// Binds and listens on a Unix-domain socket at \p Path (unlinking any
  /// stale file first).
  static ListenSocket listenUnix(const std::string &Path, int Backlog,
                                 std::string *Err);
  /// Binds and listens on 127.0.0.1:\p Port (0 picks an ephemeral port;
  /// boundPort() reports it).
  static ListenSocket listenTcp(int Port, int Backlog, std::string *Err);

  /// Accepts one connection within \p TimeoutMs. Returns an invalid Socket
  /// on timeout (\p Status = Timeout), listener closed from another thread
  /// (Closed), or error (Error).
  Socket accept(int TimeoutMs, IoStatus &Status, std::string *Err = nullptr);

  /// Non-blocking accept for event-loop callers: returns immediately with
  /// Status == Timeout when no connection is pending (the epoll event was
  /// already consumed or spurious). The listening fd is switched to
  /// O_NONBLOCK on first use and stays that way.
  Socket acceptNonBlocking(IoStatus &Status, std::string *Err = nullptr);

  int fd() const { return Fd; }

  /// The TCP port actually bound (ephemeral-port servers), -1 for Unix.
  int boundPort() const { return Port; }

private:
  int Fd = -1;
  int Port = -1;
  std::string UnixPath;
};

/// One readiness event out of EpollHandle::wait. \p Data is the caller's
/// registration cookie (a connection id, never a pointer — ids survive the
/// connection-table rehashing a pointer would not).
struct EpollEvent {
  std::uint64_t Data = 0;
  bool Readable = false;
  bool Writable = false;
  /// EPOLLHUP/EPOLLERR: the peer is gone or the fd broke; the owner should
  /// attempt a final read (to drain buffered bytes) and close.
  bool Broken = false;
};

/// RAII epoll instance (move-only). Level-triggered: the event loop's
/// per-connection state machines re-run until they would block, so no
/// readiness edge is ever lost to a short read.
class EpollHandle {
public:
  EpollHandle() = default;
  ~EpollHandle() { close(); }

  EpollHandle(EpollHandle &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  EpollHandle &operator=(EpollHandle &&Other) noexcept;
  EpollHandle(const EpollHandle &) = delete;
  EpollHandle &operator=(const EpollHandle &) = delete;

  /// Creates the epoll instance; returns false with a diagnostic on
  /// failure (fd exhaustion).
  bool create(std::string *Err = nullptr);
  bool valid() const { return Fd >= 0; }
  void close();

  /// Registers / re-arms / removes \p Fd. \p Read / \p Write select
  /// EPOLLIN / EPOLLOUT; \p Data is returned verbatim in events.
  bool add(int Fd, std::uint64_t Data, bool Read, bool Write,
           std::string *Err = nullptr);
  bool modify(int Fd, std::uint64_t Data, bool Read, bool Write,
              std::string *Err = nullptr);
  bool remove(int Fd);

  /// Blocks up to \p TimeoutMs (-1 = forever) and fills \p Out with ready
  /// events. Returns the event count, 0 on timeout, -1 on error (EINTR is
  /// retried internally).
  int wait(std::vector<EpollEvent> &Out, int TimeoutMs,
           std::string *Err = nullptr);

private:
  int Fd = -1;
};

/// RAII eventfd: a cross-thread doorbell for the event loop. Worker
/// threads signal() when they post a completed response; the loop has the
/// fd registered in its epoll set and drain()s it on wakeup.
class WakeEvent {
public:
  WakeEvent() = default;
  ~WakeEvent() { close(); }

  WakeEvent(WakeEvent &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  WakeEvent &operator=(WakeEvent &&Other) noexcept;
  WakeEvent(const WakeEvent &) = delete;
  WakeEvent &operator=(const WakeEvent &) = delete;

  bool create(std::string *Err = nullptr);
  bool valid() const { return Fd >= 0; }
  void close();
  int fd() const { return Fd; }

  /// Async-signal-safe and thread-safe; coalesces with pending signals.
  void signal();
  /// Consumes all pending signals (the loop side).
  void drain();

private:
  int Fd = -1;
};

/// RAII periodic timerfd: the event loop's deadline sweeper. Registered in
/// the epoll set like any fd; each expiry is one readable event, and
/// drain() consumes the expiration count.
class TimerFd {
public:
  TimerFd() = default;
  ~TimerFd() { close(); }

  TimerFd(TimerFd &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  TimerFd &operator=(TimerFd &&Other) noexcept;
  TimerFd(const TimerFd &) = delete;
  TimerFd &operator=(const TimerFd &) = delete;

  /// Creates the timer firing every \p IntervalMs (first expiry one
  /// interval out).
  bool create(int IntervalMs, std::string *Err = nullptr);
  bool valid() const { return Fd >= 0; }
  void close();
  int fd() const { return Fd; }

  /// Consumes pending expirations so the level-triggered epoll stops
  /// reporting the fd readable.
  void drain();

private:
  int Fd = -1;
};

} // namespace ccra

#endif // CCRA_SUPPORT_SOCKETS_H
