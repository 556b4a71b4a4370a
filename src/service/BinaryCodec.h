//===- service/BinaryCodec.h - Wire codec v2 (binary modules) ---*- C++ -*-===//
///
/// \file
/// The AllocRequestV2 payload codec: the same `key: value` request headers
/// as the textual v1 form (config / mode / deadline-ms / options), then a
/// `module-bytes: N` header followed by exactly N bytes of binary module
/// (ir/IRBinary.h) in place of v1's `module:` text section.
///
/// Negotiation: a server advertising `codec-max: 2` in its Hello accepts
/// AllocRequestV2 frames; a server without the codec treats the frame
/// type as malformed, so clients must check HelloInfo::MaxCodec first
/// (ServiceClient does). Responses are textual AllocResponse frames for
/// both codecs — the bit-identity contract is stated over response text,
/// and the fuzz harness holds the two ingestion paths byte-equivalent:
///
///   printModule(decode_v2(x)) == printModule(parse_v1(print(x)))
///
/// v1 text stays the canonical format for fuzz reproducers and anything a
/// human reads or edits: reproducer files carry provenance comment headers
/// the binary form has no room for, and a shrunk reproducer is only useful
/// if a person can open it.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_BINARYCODEC_H
#define CCRA_SERVICE_BINARYCODEC_H

#include "service/WireProtocol.h"

namespace ccra {

class Module;

/// Encodes \p R as an AllocRequestV2 payload. R.ModuleBinary must already
/// hold the encoded module (encodeModuleBinary); R.ModuleText is ignored.
std::string encodeAllocRequestV2(const AllocRequest &R);

/// Convenience: encodes \p M into R.ModuleBinary (clearing R.ModuleText),
/// then builds the payload. Returns false when the module cannot be
/// expressed in the interchange grammar (see encodeModuleBinary).
bool encodeAllocRequestV2(AllocRequest &R, const Module &M, std::string &Out,
                          std::string *Err = nullptr);

/// Parses an AllocRequestV2 payload. On success Out.ModuleBinary holds the
/// raw module bytes and Out.ModuleText is empty; the caller decodes with
/// decodeModuleBinary when (and only when) the cache misses.
bool parseAllocRequestV2(const std::string &Payload, AllocRequest &Out,
                         std::string *Err = nullptr);

} // namespace ccra

#endif // CCRA_SERVICE_BINARYCODEC_H
