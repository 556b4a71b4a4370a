//===- service/Client.h - Allocation service client -------------*- C++ -*-===//
///
/// \file
/// The client side of the allocation service: connects over a Unix-domain
/// or loopback-TCP socket, consumes the server's Hello, and issues
/// allocate/stats RPCs. One outstanding request per connection (the
/// protocol is strictly request/response); open several clients for
/// concurrency.
///
/// Shedding and server-reported errors are first-class outcomes, not
/// transport failures: RpcStatus::Shed tells a caller to back off and
/// retry, RpcStatus::Rejected carries the server's ErrorResponse (code +
/// message), and RpcStatus::Transport means the connection itself broke.
///
/// sendRawBytes/readResponse exist for protocol-robustness tests that must
/// write torn or garbage frames a well-behaved client never produces.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_CLIENT_H
#define CCRA_SERVICE_CLIENT_H

#include "service/WireProtocol.h"
#include "support/Sockets.h"

#include <string>

namespace ccra {

enum class RpcStatus {
  Ok,
  Shed,      ///< server queue full; retry with backoff
  Rejected,  ///< server answered with an Error frame (see ErrorResponse)
  Transport, ///< connection failed, timed out, or desynced
};

class ServiceClient {
public:
  ServiceClient() = default;

  /// Connects and reads the server's Hello frame. Returns false with a
  /// diagnostic on failure.
  bool connectUnix(const std::string &Path, std::string *Err = nullptr);
  bool connectTcp(int Port, std::string *Err = nullptr);

  bool connected() const { return Conn.valid(); }
  void close() { Conn.close(); }

  /// The Hello received on connect (valid once connect*() succeeded).
  const HelloInfo &hello() const { return Hello; }

  /// Per-operation total deadline (default 30 s; -1 blocks forever).
  void setTimeoutMs(int Ms) { TimeoutMs = Ms; }

  /// Runs one allocation. On Ok fills \p Out; on Rejected fills
  /// \p ServerError; on Shed \p ServerError.Message carries the server's
  /// retry hint; on Transport \p Err explains and the connection is dead.
  /// A request with ModuleBinary set goes out as an AllocRequestV2 frame;
  /// that requires the server's Hello to advertise codec-max >= 2 (check
  /// hello().MaxCodec before building binary requests — a request against
  /// a server without it fails as Transport without sending anything).
  RpcStatus allocate(const AllocRequest &Request, AllocResponse &Out,
                     ErrorResponse &ServerError, std::string *Err = nullptr);

  /// Fetches server-wide telemetry (a STATS request).
  RpcStatus stats(TelemetrySnapshot &Out, ErrorResponse &ServerError,
                  std::string *Err = nullptr);

  /// Test hook: writes \p Bytes verbatim (torn/garbage frames).
  bool sendRawBytes(const std::string &Bytes, std::string *Err = nullptr);
  /// Test hook: half-closes the connection after raw bytes, so the
  /// server sees EOF (a torn frame) at once instead of at its mid-frame
  /// timeout; the answer can still be read.
  bool shutdownWrite() { return Conn.shutdownWrite(); }
  /// Test hook: reads one frame; returns the raw read status.
  FrameReadStatus readResponse(Frame &Out, std::string *Err = nullptr);

private:
  bool finishConnect(std::string *Err);
  /// Sends \p Request and reads the one response frame into \p In.
  RpcStatus roundTrip(const Frame &Request, Frame &In,
                      ErrorResponse &ServerError, std::string *Err);
  /// Largest response frame this client will buffer. Derived from the
  /// server's advertised MaxPayloadBytes (plus slack for response
  /// overhead) so a corrupted or hostile length field cannot make the
  /// client allocate up to 4 GiB before the checksum is even validated.
  std::size_t maxResponseBytes() const;

  Socket Conn;
  HelloInfo Hello;
  int TimeoutMs = 30000;
};

} // namespace ccra

#endif // CCRA_SERVICE_CLIENT_H
