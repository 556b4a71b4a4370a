//===- service/EventLoop.cpp ----------------------------------------------===//

#include "service/EventLoop.h"

#include "support/Telemetry.h"

using namespace ccra;

namespace {

/// Registration cookies for the loop's own fds; connection ids start at 16
/// so they can never collide.
constexpr std::uint64_t ListenerId = 0;
constexpr std::uint64_t WakeId = 1;
constexpr std::uint64_t TimerId = 2;

WireFrame errorFrame(const std::string &Code, const std::string &Message) {
  return encodeWireFrame({FrameType::Error, encodeError({Code, Message})});
}

} // namespace

EventLoop::EventLoop(EventLoopConfig Config, Telemetry *Telem)
    : Config(Config), Telem(Telem) {}

EventLoop::~EventLoop() {
  requestDrain();
  wait();
}

bool EventLoop::start(ListenSocket L, WireFrame HelloFrame,
                      FrameHandler Handler,
                      std::function<void()> DrainStarted, std::string *Err) {
  if (Started.load()) {
    if (Err)
      *Err = "event loop already started";
    return false;
  }
  Listener = std::move(L);
  Hello = std::move(HelloFrame);
  OnFrame = std::move(Handler);
  OnDrainStarted = std::move(DrainStarted);

  if (!Ep.create(Err) || !Wake.create(Err) ||
      !Sweep.create(Config.SweepIntervalMs, Err))
    return false;
  if (!Ep.add(Listener.fd(), ListenerId, /*Read=*/true, /*Write=*/false, Err) ||
      !Ep.add(Wake.fd(), WakeId, true, false, Err) ||
      !Ep.add(Sweep.fd(), TimerId, true, false, Err))
    return false;

  Started.store(true);
  LoopThread = std::thread([this] { run(); });
  return true;
}

void EventLoop::requestDrain() {
  DrainRequested.store(true);
  if (Started.load())
    Wake.signal();
}

void EventLoop::wait() {
  if (LoopThread.joinable())
    LoopThread.join();
}

void EventLoop::postResponse(std::uint64_t ConnId, WireFrame Response) {
  {
    std::lock_guard<std::mutex> Lock(CompletionMutex);
    Completions.emplace_back(ConnId, std::move(Response));
  }
  if (!WakePending.exchange(true))
    Wake.signal();
}

void EventLoop::run() {
  std::vector<EpollEvent> Events;
  for (;;) {
    if (Ep.wait(Events, -1) < 0)
      break; // epoll itself broke; nothing recoverable remains
    for (const EpollEvent &Ev : Events) {
      switch (Ev.Data) {
      case ListenerId:
        acceptReady();
        break;
      case WakeId:
        Wake.drain();
        handleWake();
        break;
      case TimerId:
        Sweep.drain();
        sweepDeadlines();
        break;
      default:
        handleConnEvent(Ev.Data, Ev);
        break;
      }
    }
    if (Draining && Conns.empty())
      break;
  }
  // Whatever survives (loop killed by epoll failure) closes via RAII.
  Conns.clear();
  OpenConns.store(0);
  Listener.close();
}

void EventLoop::acceptReady() {
  if (Draining)
    return; // listener already closed; a stale event
  for (;;) {
    IoStatus Status = IoStatus::Error;
    Socket Sock = Listener.acceptNonBlocking(Status);
    if (Status == IoStatus::Timeout)
      return; // backlog drained
    if (Status != IoStatus::Ok) {
      // Transient failure (EMFILE/ENFILE under fd exhaustion). Returning
      // with the listener still armed would busy-spin: level-triggered
      // epoll re-reports the ready listener immediately. Disarm EPOLLIN
      // and let the sweep timer re-arm it, so exhaustion degrades into a
      // SweepIntervalMs-paced retry instead of 100% CPU.
      Ep.modify(Listener.fd(), ListenerId, /*Read=*/false, /*Write=*/false);
      ListenerDisarmed = true;
      return;
    }
    Telem->addCount(telemetry::ServeConnections);
    std::uint64_t Id = NextConnId++;
    Conn C;
    C.Sock = std::move(Sock);
    int Fd = C.Sock.fd();
    auto [It, Inserted] = Conns.emplace(Id, std::move(C));
    (void)Inserted;
    if (!Ep.add(Fd, Id, /*Read=*/true, /*Write=*/false)) {
      Conns.erase(It);
      continue;
    }
    It->second.ReadArmed = true;
    OpenConns.store(Conns.size());
    Telem->noteMax(telemetry::ServePeakConnections,
                   static_cast<double>(Conns.size()));
    queueWrite(Id, Hello);
  }
}

void EventLoop::handleConnEvent(std::uint64_t Id, const EpollEvent &Ev) {
  if (Ev.Writable) {
    flushWrites(Id);
    if (!Conns.count(Id))
      return;
    updateInterest(Id);
  }
  if (Ev.Readable) {
    readReady(Id);
    return;
  }
  if (Ev.Broken) {
    // EPOLLHUP/EPOLLERR with nothing readable: the peer is fully gone. An
    // InFlight connection's response is discarded when posted — same
    // outcome as the old server's EPIPE on the response write.
    closeConn(Id);
  }
}

void EventLoop::readReady(std::uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = It->second;
  char Buf[64 * 1024];
  for (;;) {
    IoStatus Status = IoStatus::Error;
    std::size_t N = C.Sock.recvSome(Buf, sizeof(Buf), Status);
    if (Status == IoStatus::Closed) {
      if (C.In.empty() && !C.Busy) {
        closeConn(Id); // clean close between frames
        return;
      }
      if (C.Busy) {
        // Half-closed peer still owed a response: suppress reads (already
        // off while Busy) and let the completion path flush and close.
        C.CloseAfterFlush = true;
        updateInterest(Id);
        return;
      }
      // Torn frame: answer if the pipe still works, then drop.
      Telem->addCount(telemetry::ServeMalformed);
      C.In.clear();
      C.MidFrame = false;
      C.CloseAfterFlush = true;
      queueWrite(Id, errorFrame("malformed", "torn frame"));
      return;
    }
    if (Status != IoStatus::Ok) {
      closeConn(Id);
      return;
    }
    if (N == 0)
      break; // would block
    bool WasIdle = C.In.empty() && !C.MidFrame;
    C.In.append(Buf, N);
    if (WasIdle) {
      // First byte of a new frame starts the mid-frame budget (the idle
      // wait before it is unbounded, exactly like the blocking reader).
      C.MidFrame = true;
      C.FrameDeadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(Config.FrameTimeoutMs);
    }
    // A short read took everything the kernel had: stop without a second
    // recv that would only report EAGAIN. Level-triggered epoll reports
    // whatever arrives later.
    if (N < sizeof(Buf))
      break;
  }
  processInput(Id);
}

void EventLoop::processInput(std::uint64_t Id) {
  for (;;) {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      return;
    Conn &C = It->second;
    if (C.Busy || C.CloseAfterFlush)
      break;
    if (C.In.empty()) {
      C.MidFrame = false;
      break;
    }
    if (!C.MidFrame) {
      // Leftover pipelined bytes begin the next frame right now.
      C.MidFrame = true;
      C.FrameDeadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(Config.FrameTimeoutMs);
    }
    if (C.In.size() < WireHeaderSize)
      break;

    FrameHeader H;
    std::string Err;
    FrameReadStatus HS = decodeFrameHeader(
        reinterpret_cast<const unsigned char *>(C.In.data()),
        Config.MaxPayloadBytes, H, &Err);
    if (HS != FrameReadStatus::Ok) {
      // Garbage magic, alien version, unknown type, oversized declaration:
      // the stream cannot be resynchronized. Answer and close.
      Telem->addCount(telemetry::ServeMalformed);
      const char *Code =
          HS == FrameReadStatus::TooLarge ? "too-large" : "malformed";
      C.CloseAfterFlush = true;
      queueWrite(Id, errorFrame(Code, Err));
      return;
    }
    if (C.In.size() < WireHeaderSize + H.Length)
      break; // payload still arriving

    Frame In;
    In.Type = H.Type;
    In.Payload.assign(C.In, WireHeaderSize, H.Length);
    C.In.erase(0, WireHeaderSize + H.Length);
    C.MidFrame = false;
    if (wireChecksum(In.Payload) != H.Checksum) {
      Telem->addCount(telemetry::ServeMalformed);
      C.CloseAfterFlush = true;
      queueWrite(Id, errorFrame("malformed", "payload checksum mismatch"));
      return;
    }

    FrameDisposition D = OnFrame(Id, In);
    // The handler cannot touch the connection table, but queueWrite below
    // can close the connection; re-find on every iteration (above).
    switch (D.Action) {
    case FrameAction::Reply:
      queueWrite(Id, std::move(D.Response));
      continue;
    case FrameAction::ReplyClose: {
      auto It2 = Conns.find(Id);
      if (It2 == Conns.end())
        return;
      It2->second.CloseAfterFlush = true;
      queueWrite(Id, std::move(D.Response));
      return;
    }
    case FrameAction::InFlight: {
      auto It2 = Conns.find(Id);
      if (It2 == Conns.end())
        return;
      It2->second.Busy = true;
      updateInterest(Id);
      return;
    }
    case FrameAction::Close:
      closeConn(Id);
      return;
    }
  }
  updateInterest(Id);
}

void EventLoop::queueWrite(std::uint64_t Id, WireFrame F) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = It->second;
  bool WasEmpty = !C.writing();
  C.Out.push_back(std::move(F));
  if (WasEmpty) {
    // The write budget is a total deadline for everything queued from this
    // moment, matching sendAll's contract in the blocking server.
    C.WriteDeadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(Config.WriteTimeoutMs);
  }
  flushWrites(Id);
  if (Conns.count(Id))
    updateInterest(Id);
}

void EventLoop::flushWrites(std::uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = It->second;
  while (C.writing()) {
    const std::string &F = *C.Out[C.OutHead];
    IoStatus Status = IoStatus::Error;
    std::size_t N = C.Sock.sendSome(F.data() + C.OutPos,
                                    F.size() - C.OutPos, Status);
    if (Status != IoStatus::Ok) {
      closeConn(Id);
      return;
    }
    if (N == 0)
      return; // would block; EPOLLOUT re-enters here
    C.OutPos += N;
    if (C.OutPos == F.size()) {
      C.Out[C.OutHead++].reset();
      C.OutPos = 0;
    }
  }
  C.Out.clear();
  C.OutHead = 0;
  if (C.CloseAfterFlush)
    closeConn(Id);
}

void EventLoop::updateInterest(std::uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = It->second;
  bool WantRead = !C.Busy && !C.CloseAfterFlush;
  bool WantWrite = C.writing();
  if (WantRead == C.ReadArmed && WantWrite == C.WriteArmed)
    return;
  C.ReadArmed = WantRead;
  C.WriteArmed = WantWrite;
  Ep.modify(C.Sock.fd(), Id, WantRead, WantWrite);
}

void EventLoop::sweepDeadlines() {
  if (ListenerDisarmed && !Draining) {
    // Accept previously failed on fd exhaustion; closed connections may
    // have freed fds since. Re-arm and retry immediately — on another
    // failure acceptReady disarms again and the next sweep re-tries.
    ListenerDisarmed = false;
    Ep.modify(Listener.fd(), ListenerId, /*Read=*/true, /*Write=*/false);
    acceptReady();
  }
  auto Now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> Expired;
  for (const auto &Entry : Conns) {
    const Conn &C = Entry.second;
    if (C.MidFrame && Now >= C.FrameDeadline) {
      // Mid-frame stall: the stream is desynced, close without an answer
      // (the blocking reader's Timeout semantics).
      Expired.push_back(Entry.first);
      continue;
    }
    if (C.writing() && Now >= C.WriteDeadline) {
      Telem->addCount(telemetry::ServeWriteTimeouts);
      Expired.push_back(Entry.first);
    }
  }
  for (std::uint64_t Id : Expired)
    closeConn(Id);
}

void EventLoop::handleWake() {
  // Disarm before swapping: a post that lands after the swap sees the flag
  // false and rings the doorbell again, so nothing is ever stranded.
  WakePending.store(false);
  std::vector<std::pair<std::uint64_t, WireFrame>> Done;
  {
    std::lock_guard<std::mutex> Lock(CompletionMutex);
    Done.swap(Completions);
  }
  for (auto &Entry : Done) {
    std::uint64_t Id = Entry.first;
    auto It = Conns.find(Id);
    if (It == Conns.end())
      continue; // connection died while its request ran
    Conn &C = It->second;
    C.Busy = false;
    if (Draining)
      C.CloseAfterFlush = true;
    queueWrite(Id, std::move(Entry.second));
    if (!Conns.count(Id))
      continue;
    // Pipelined bytes may already hold the next request.
    processInput(Id);
  }
  if (DrainRequested.load())
    beginDrain();
}

void EventLoop::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  // Refuse new connections the moment drain starts: close (and for Unix
  // sockets unlink) the listener so clients see ECONNREFUSED/ENOENT
  // instead of hanging in a never-accepted backlog.
  ListenerDisarmed = false;
  Ep.remove(Listener.fd());
  Listener.close();
  // A connection is owed something only while Busy (response pending) or
  // flushing. Everything else — idle, mid-frame, mid-garbage — closes now;
  // a wedged peer cannot hold drain hostage because no thread is parked on
  // it, the table entry just goes away.
  std::vector<std::uint64_t> Victims;
  for (auto &Entry : Conns) {
    Conn &C = Entry.second;
    if (C.Busy)
      continue; // completion path closes after flush (Draining is set)
    if (C.writing()) {
      C.CloseAfterFlush = true;
      continue;
    }
    Victims.push_back(Entry.first);
  }
  for (std::uint64_t Id : Victims)
    closeConn(Id);
  // All admissions happen on this thread, so after this callback returns
  // no new work can ever reach the request queue: the workers' exit
  // condition (admissions closed + empty queue) is now monotone.
  if (OnDrainStarted)
    OnDrainStarted();
}

void EventLoop::closeConn(std::uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Ep.remove(It->second.Sock.fd());
  Conns.erase(It);
  OpenConns.store(Conns.size());
}
