//===- service/Client.cpp -------------------------------------------------===//

#include "service/Client.h"

#include "service/BinaryCodec.h"

using namespace ccra;

bool ServiceClient::connectUnix(const std::string &Path, std::string *Err) {
  Conn = Socket::connectUnix(Path, Err);
  return finishConnect(Err);
}

bool ServiceClient::connectTcp(int Port, std::string *Err) {
  Conn = Socket::connectTcp(Port, Err);
  return finishConnect(Err);
}

std::size_t ServiceClient::maxResponseBytes() const {
  // An AllocResponse echoes the allocated module (comparable in size to
  // the request payload the server caps at MaxPayloadBytes) plus
  // per-function stats and telemetry; twice the cap plus 1 MiB of fixed
  // slack covers every legitimate response.
  return Hello.MaxPayloadBytes * 2 + (1u << 20);
}

bool ServiceClient::finishConnect(std::string *Err) {
  if (!Conn.valid())
    return false;
  Frame F;
  FrameReadStatus RS = readFrame(Conn, F, 1u << 20, TimeoutMs, TimeoutMs, Err);
  if (RS != FrameReadStatus::Ok || F.Type != FrameType::Hello) {
    if (Err && Err->empty())
      *Err = "did not receive a Hello frame";
    Conn.close();
    return false;
  }
  if (!parseHello(F.Payload, Hello, Err)) {
    Conn.close();
    return false;
  }
  if (Hello.Protocol != WireVersion) {
    if (Err)
      *Err = "protocol version mismatch: server speaks v" +
             std::to_string(Hello.Protocol) + ", client v" +
             std::to_string(WireVersion);
    Conn.close();
    return false;
  }
  return true;
}

RpcStatus ServiceClient::roundTrip(const Frame &Request, Frame &In,
                                   ErrorResponse &ServerError,
                                   std::string *Err) {
  if (!Conn.valid()) {
    if (Err)
      *Err = "not connected";
    return RpcStatus::Transport;
  }
  if (writeFrame(Conn, Request, TimeoutMs, Err) != IoStatus::Ok) {
    Conn.close();
    return RpcStatus::Transport;
  }
  FrameReadStatus RS =
      readFrame(Conn, In, maxResponseBytes(), TimeoutMs, TimeoutMs, Err);
  if (RS != FrameReadStatus::Ok) {
    Conn.close();
    return RpcStatus::Transport;
  }
  if (In.Type == FrameType::Shed) {
    ServerError.Code = "shed";
    ServerError.Message = In.Payload;
    return RpcStatus::Shed;
  }
  if (In.Type == FrameType::Error) {
    if (!parseError(In.Payload, ServerError)) {
      ServerError.Code = "internal";
      ServerError.Message = In.Payload;
    }
    return RpcStatus::Rejected;
  }
  return RpcStatus::Ok;
}

RpcStatus ServiceClient::allocate(const AllocRequest &Request,
                                  AllocResponse &Out,
                                  ErrorResponse &ServerError,
                                  std::string *Err) {
  Frame Req;
  if (!Request.ModuleBinary.empty()) {
    // Codec v2 is negotiated, never assumed: a server without it would
    // reject the frame type as malformed.
    if (Hello.MaxCodec < 2) {
      if (Err)
        *Err = "server does not accept binary modules (codec-max " +
               std::to_string(Hello.MaxCodec) + ")";
      return RpcStatus::Transport;
    }
    Req.Type = FrameType::AllocRequestV2;
    Req.Payload = encodeAllocRequestV2(Request);
  } else {
    Req.Type = FrameType::AllocRequest;
    Req.Payload = encodeAllocRequest(Request);
  }
  Frame In;
  RpcStatus Status = roundTrip(Req, In, ServerError, Err);
  if (Status != RpcStatus::Ok)
    return Status;
  if (In.Type != FrameType::AllocResponse ||
      !parseAllocResponse(In.Payload, Out, Err)) {
    if (Err && Err->empty())
      *Err = "unexpected response frame type";
    Conn.close();
    return RpcStatus::Transport;
  }
  return RpcStatus::Ok;
}

RpcStatus ServiceClient::stats(TelemetrySnapshot &Out,
                               ErrorResponse &ServerError, std::string *Err) {
  Frame Req;
  Req.Type = FrameType::StatsRequest;
  Frame In;
  RpcStatus Status = roundTrip(Req, In, ServerError, Err);
  if (Status != RpcStatus::Ok)
    return Status;
  if (In.Type != FrameType::StatsResponse ||
      !TelemetrySnapshot::fromJson(In.Payload, Out)) {
    if (Err)
      *Err = "unexpected response frame type";
    Conn.close();
    return RpcStatus::Transport;
  }
  return RpcStatus::Ok;
}

bool ServiceClient::sendRawBytes(const std::string &Bytes, std::string *Err) {
  return Conn.sendAll(Bytes.data(), Bytes.size(), TimeoutMs, Err) ==
         IoStatus::Ok;
}

FrameReadStatus ServiceClient::readResponse(Frame &Out, std::string *Err) {
  return readFrame(Conn, Out, maxResponseBytes(), TimeoutMs, TimeoutMs, Err);
}
