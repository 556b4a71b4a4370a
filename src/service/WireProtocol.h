//===- service/WireProtocol.h - Framed allocation protocol ------*- C++ -*-===//
///
/// \file
/// The wire format of the allocation service: length-prefixed, versioned,
/// checksummed frames carrying textual payloads.
///
/// Frame layout (all integers little-endian):
///
///   u32 magic     'CCRA' (0x41524343)
///   u16 version   WireVersion (2)
///   u16 type      FrameType
///   u32 length    payload bytes
///   u32 checksum  low 32 bits of support/Hash.h's hash64 of the payload
///
/// Version 1 differed only in its checksum; the version gate refuses a v1
/// peer, with no fallback.
///
/// Conversation: on connect the server sends one Hello frame (build info,
/// protocol version, limits). The client then issues AllocRequest /
/// StatsRequest frames; every request gets exactly one response frame —
/// AllocResponse, StatsResponse, Shed (bounded queue overflowed; retry
/// later), or Error (code + message; see ErrorResponse for codes).
///
/// Payloads are line-oriented text: `key: value` headers, then (where
/// applicable) a section marker (`module:` / `ir:` / `telemetry:`) whose
/// body runs to the end of the payload or to a fixed end marker. Every
/// number that feeds the bit-identity contract (costs) is emitted in
/// shortest-round-trip form, so a response reparses to exactly the values
/// the server computed.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_WIREPROTOCOL_H
#define CCRA_SERVICE_WIREPROTOCOL_H

#include "analysis/Frequency.h"
#include "regalloc/AllocationResult.h"
#include "regalloc/AllocatorOptions.h"
#include "support/Sockets.h"
#include "support/Telemetry.h"
#include "target/MachineDescription.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ccra {

inline constexpr std::uint32_t WireMagic = 0x41524343; // "CCRA" in LE bytes
/// The frame-header version: a hard compatibility gate (readFrame rejects
/// a mismatch). Client and server are built from one tree, so the Hello
/// carries no minor version; its parser still skips unknown keys.
inline constexpr std::uint16_t WireVersion = 2;
inline constexpr std::size_t WireHeaderSize = 16;

/// Highest module codec this build speaks: 1 = textual `.ccra` payloads,
/// 2 = the length-prefixed binary encoding of ir/IRBinary.h.
inline constexpr std::uint16_t WireMaxCodec = 2;

enum class FrameType : std::uint16_t {
  Hello = 1,
  AllocRequest = 2,
  AllocResponse = 3,
  StatsRequest = 4,
  StatsResponse = 5,
  Error = 6,
  Shed = 7,
  /// An allocation request whose module section is binary (codec v2). The
  /// response is a regular AllocResponse either way — the bit-identity
  /// contract is stated over the textual response, so both ingestion paths
  /// must produce byte-identical output.
  AllocRequestV2 = 8,
};

struct Frame {
  FrameType Type = FrameType::Error;
  std::string Payload;
};

/// A finished frame, header and payload, immutable once built. The
/// server encodes each response once, by the thread that produced it; the
/// response cache and every connection that sends it share that one copy.
using WireFrame = std::shared_ptr<const std::string>;

/// The low 32 bits of hash64 (support/Hash.h) over the payload: cheap
/// torn-frame detection, not cryptographic.
std::uint32_t wireChecksum(std::string_view Payload);

/// Serializes header + payload into \p Out (appending nothing else).
void encodeFrame(const Frame &F, std::string &Out);

/// encodeFrame into a new shared frame.
WireFrame encodeWireFrame(const Frame &F);

enum class FrameReadStatus {
  Ok,
  Eof,     ///< peer closed cleanly between frames
  Idle,    ///< no frame started within IdleTimeoutMs; nothing consumed,
           ///< safe to retry (servers poll this way to notice drain)
  Timeout, ///< deadline expired mid-frame; stream desynced, close it
  Malformed, ///< bad magic/version/type, torn frame, checksum mismatch
  TooLarge,  ///< declared payload exceeds \p MaxPayload
  IoError,
};

/// A decoded (and validated) fixed frame header. The payload checksum is
/// carried along so callers that reassemble the payload incrementally (the
/// event loop) can verify it once the bytes are complete.
struct FrameHeader {
  FrameType Type = FrameType::Error;
  std::uint32_t Length = 0;
  std::uint32_t Checksum = 0;
};

/// Validates the WireHeaderSize fixed bytes at \p Bytes: magic, version,
/// frame type, and the declared length against \p MaxPayload. Returns Ok,
/// Malformed, or TooLarge — the single source of truth for header
/// admissibility, shared by the blocking readFrame and the event loop's
/// incremental reassembly so the two paths cannot drift.
FrameReadStatus decodeFrameHeader(const unsigned char *Bytes,
                                  std::size_t MaxPayload, FrameHeader &Out,
                                  std::string *Err = nullptr);

/// Reads one frame. \p IdleTimeoutMs bounds the wait for the frame's first
/// byte (Idle on expiry, with nothing consumed); \p FrameTimeoutMs is the
/// total budget for the rest of the frame once started (Timeout on expiry
/// — the stream is desynced and should be closed). On TooLarge the payload
/// is NOT consumed — the stream is unusable and should be closed.
FrameReadStatus readFrame(Socket &S, Frame &Out, std::size_t MaxPayload,
                          int IdleTimeoutMs, int FrameTimeoutMs,
                          std::string *Err = nullptr);

/// Writes one frame within \p TimeoutMs (total).
IoStatus writeFrame(Socket &S, const Frame &F, int TimeoutMs,
                    std::string *Err = nullptr);

// --- Payload codecs -----------------------------------------------------

/// Shortest text that parses back to exactly \p V (std::to_chars).
std::string formatExactDouble(double V);

struct HelloInfo {
  std::string ServerInfo;    ///< buildInfoString() of the serving binary
  std::uint16_t Protocol = WireVersion;
  std::size_t MaxPayloadBytes = 0;
  unsigned QueueCapacity = 0;
  bool CacheEnabled = false; ///< content-addressed allocation cache on
  /// Highest module codec the server accepts (1 when the field is
  /// absent). Clients send AllocRequestV2 only when >= 2.
  std::uint16_t MaxCodec = 1;
};
/// Emits every field. parseHello ignores keys it does not know.
std::string encodeHello(const HelloInfo &H);
bool parseHello(const std::string &Payload, HelloInfo &Out,
                std::string *Err = nullptr);

struct AllocRequest {
  RegisterConfig Config = RegisterConfig(9, 7, 3, 3);
  FrequencyMode Mode = FrequencyMode::Profile;
  /// Ships as AllocatorOptions::canonicalKey(): behavior-affecting fields
  /// only. Execution fields (Jobs, Verify, ...) are the SERVER's policy,
  /// not the client's — results are bit-identical across them, so a
  /// request carrying them could only fragment the server's
  /// content-addressed cache. parseAllocatorOptions rejects their names,
  /// so a parsed request holds defaults for every excluded field.
  AllocatorOptions Options;
  /// Admission deadline in milliseconds from arrival; 0 = none. A request
  /// still queued when its deadline expires is answered with an Error
  /// frame (code "deadline") instead of being allocated.
  unsigned DeadlineMs = 0;
  /// Textual .ccra module (ir/IRParser.h grammar). Empty for a codec-v2
  /// request, which carries ModuleBinary instead.
  std::string ModuleText;
  /// Binary module (ir/IRBinary.h), the codec-v2 payload. Exactly one of
  /// ModuleText / ModuleBinary is set on a well-formed request; the
  /// encode/parse pair for this form lives in service/BinaryCodec.h.
  std::string ModuleBinary;
};
std::string encodeAllocRequest(const AllocRequest &R);
bool parseAllocRequest(const std::string &Payload, AllocRequest &Out,
                       std::string *Err = nullptr);

struct FunctionSummary {
  std::string Name;
  CostBreakdown Costs;
  unsigned Rounds = 0;
  unsigned SpilledRanges = 0;
  unsigned VoluntarySpills = 0;
  unsigned CoalescedMoves = 0;
  unsigned CalleeRegsPaid = 0;
};

struct AllocResponse {
  CostBreakdown Totals;
  std::vector<FunctionSummary> Functions; ///< module order
  TelemetrySnapshot Telemetry;            ///< this request's engine telemetry
  std::string AllocatedIr;                ///< printModule of the result
};
std::string encodeAllocResponse(const AllocResponse &R);
/// The AllocResponse frame carrying encodeAllocResponse(\p R), built in
/// one exactly sized buffer (the payload is never copied).
WireFrame encodeAllocResponseFrame(const AllocResponse &R);
bool parseAllocResponse(const std::string &Payload, AllocResponse &Out,
                        std::string *Err = nullptr);

/// Error codes: "malformed" (bad frame payload / module / options),
/// "too-large" (payload over the advertised limit), "deadline" (request
/// expired while queued), "draining" (server is shutting down), "fault"
/// (worker failed mid-request), "internal".
struct ErrorResponse {
  std::string Code;
  std::string Message;
};
std::string encodeError(const ErrorResponse &E);
bool parseError(const std::string &Payload, ErrorResponse &Out);

} // namespace ccra

#endif // CCRA_SERVICE_WIREPROTOCOL_H
