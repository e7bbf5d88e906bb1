#include "svc/wire.hpp"

#include <cstdio>

#include "resilience/framed_file.hpp"

namespace dxbsp::svc {

namespace {

// "DXSVCW1 <type> <payload-bytes> <crc32-hex8>".
std::string frame_header(std::string_view type, std::string_view payload) {
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x",
                resilience::crc32(resilience::byte_span(payload)));
  return std::string(kWireMagic) + ' ' + std::string(type) + ' ' +
         std::to_string(payload.size()) + ' ' + crc;
}

}  // namespace

std::string wire_frame(const std::string& type,
                       const std::string& payload_json) {
  return frame_header(type, payload_json) + '\n' + payload_json;
}

Expected<obs::JsonValue> wire_parse(std::string_view bytes,
                                    std::string_view type,
                                    const std::string& origin) {
  const std::size_t nl = bytes.find('\n');
  if (nl == std::string_view::npos)
    return Error(ErrorCode::kCorruptInput,
                 origin + ": missing frame header line");
  const std::string_view header = bytes.substr(0, nl);
  const std::string_view payload = bytes.substr(nl + 1);
  // The header is a pure function of type and payload: comparing it with
  // the rebuilt one checks magic/version, type, length and CRC at once
  // and accepts only the exact bytes wire_frame writes (lowercase hex),
  // so every header bit is guarded, not just the CRC-covered payload.
  const std::string want = frame_header(type, payload);
  if (header != want)
    return Error(ErrorCode::kCorruptInput,
                 origin + ": frame header '" + std::string(header) +
                     "' does not match its payload (want '" + want + "')");
  auto parsed = obs::JsonValue::parse(payload, origin);
  if (!parsed.ok())
    return Error(ErrorCode::kCorruptInput,
                 origin + ": payload JSON invalid: " + parsed.error().what());
  return parsed;
}

void wire_write_file(const std::string& path, const std::string& type,
                     const std::string& payload_json) {
  resilience::publish(path,
                      resilience::byte_span(wire_frame(type, payload_json)),
                      resilience::Durability::kRenameOnly);
}

Expected<obs::JsonValue> wire_read_file(const std::string& path,
                                        std::string_view type) {
  Expected<std::vector<unsigned char>> bytes = resilience::read_file(path);
  if (!bytes) return bytes.error();
  return wire_parse(resilience::text_view(bytes.value()), type, path);
}

}  // namespace dxbsp::svc
