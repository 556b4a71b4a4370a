//===- service/BinaryCodec.cpp --------------------------------------------===//

#include "service/BinaryCodec.h"

#include "ir/IRBinary.h"

#include <cstdio>

using namespace ccra;

namespace {

bool fail(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
  return false;
}

/// Shared with the v1 encoder by construction: the header section of both
/// payload forms is identical so the two parsers stay trivially in sync.
std::string encodeRequestHeaders(const AllocRequest &R) {
  std::string Out;
  Out += "config: " + std::to_string(R.Config.IntCallerSave) + "," +
         std::to_string(R.Config.FloatCallerSave) + "," +
         std::to_string(R.Config.IntCalleeSave) + "," +
         std::to_string(R.Config.FloatCalleeSave) + "\n";
  Out += std::string("mode: ") +
         (R.Mode == FrequencyMode::Static ? "static" : "profile") + "\n";
  if (R.DeadlineMs > 0)
    Out += "deadline-ms: " + std::to_string(R.DeadlineMs) + "\n";
  Out += "options: " + R.Options.canonicalKey() + "\n";
  return Out;
}

} // namespace

std::string ccra::encodeAllocRequestV2(const AllocRequest &R) {
  std::string Out = encodeRequestHeaders(R);
  Out += "module-bytes: " + std::to_string(R.ModuleBinary.size()) + "\n";
  Out += R.ModuleBinary;
  return Out;
}

bool ccra::encodeAllocRequestV2(AllocRequest &R, const Module &M,
                                std::string &Out, std::string *Err) {
  R.ModuleText.clear();
  if (!encodeModuleBinary(M, R.ModuleBinary, Err))
    return false;
  Out = encodeAllocRequestV2(R);
  return true;
}

bool ccra::parseAllocRequestV2(const std::string &Payload, AllocRequest &Out,
                               std::string *Err) {
  Out = AllocRequest();
  std::size_t Pos = 0;
  bool SawModule = false;
  while (Pos < Payload.size()) {
    std::size_t End = Payload.find('\n', Pos);
    if (End == std::string::npos)
      End = Payload.size();
    std::string Line = Payload.substr(Pos, End - Pos);
    Pos = End == Payload.size() ? End : End + 1;
    if (Line.empty())
      continue;
    std::size_t Colon = Line.find(": ");
    if (Colon == std::string::npos)
      return fail(Err, "malformed request line '" + Line + "'");
    std::string Key = Line.substr(0, Colon);
    std::string Value = Line.substr(Colon + 2);
    if (Key == "module-bytes") {
      // The byte count is explicit (not "rest of payload") so a torn or
      // padded payload is detected here rather than surfacing as a module
      // decode error with a misleading message.
      unsigned long long N = 0;
      if (std::sscanf(Value.c_str(), "%llu", &N) != 1 ||
          std::to_string(N) != Value)
        return fail(Err, "bad module-bytes count '" + Value + "'");
      if (N != Payload.size() - Pos)
        return fail(Err, "module-bytes count does not match payload");
      Out.ModuleBinary = Payload.substr(Pos);
      SawModule = true;
      break;
    }
    if (Key == "config") {
      std::string ConfigErr;
      if (!parseRegisterConfig(Value, Out.Config, &ConfigErr))
        return fail(Err, ConfigErr);
    } else if (Key == "mode") {
      if (Value == "profile")
        Out.Mode = FrequencyMode::Profile;
      else if (Value == "static")
        Out.Mode = FrequencyMode::Static;
      else
        return fail(Err, "bad mode '" + Value + "'");
    } else if (Key == "deadline-ms") {
      unsigned long long N = 0;
      if (std::sscanf(Value.c_str(), "%llu", &N) != 1)
        return fail(Err, "bad deadline-ms '" + Value + "'");
      Out.DeadlineMs = static_cast<unsigned>(N);
    } else if (Key == "options") {
      std::string OptErr;
      if (!parseAllocatorOptions(Value, Out.Options, &OptErr))
        return fail(Err, "bad options: " + OptErr);
    } else {
      return fail(Err, "unknown request key '" + Key + "'");
    }
  }
  if (!SawModule)
    return fail(Err, "request has no module-bytes section");
  if (Out.ModuleBinary.empty())
    return fail(Err, "request module is empty");
  return true;
}
