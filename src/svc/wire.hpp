#pragma once
// Versioned, CRC-guarded wire format for the sweep-coordinator protocol
// (docs/resilience.md §fleet mode).
//
// Coordinator and workers exchange *files*, not sockets: every message
// is published by rename (resilience::publish, rename-only durability —
// docs/resilience.md §framed files gives the reason), so a reader sees
// either the previous complete message or the new complete message,
// never a torn one. A message is one framed payload:
//
//   DXSVCW1 <type> <payload-bytes> <crc32-hex8>\n
//   <payload>
//
// The header line pins the protocol version (the magic's trailing digit),
// the message type ("lease", "heartbeat", "aggregates", "result", ...),
// the payload length in bytes, and the IEEE CRC-32 of the payload in
// lowercase hex. The header is a pure function of type and payload, so a
// reader that names the type it expects checks every header byte. Payloads
// are JSON documents produced by obs::JsonWriter and parsed by
// obs::JsonValue; the CRC guards the half-written/half-copied file failure
// modes JSON parsing alone would misdiagnose.
//
// Validation failures, a message of another type included, are
// Error{kCorruptInput}; a missing file is Error{kIo} (callers poll for
// messages that may not exist yet).

#include <string>
#include <string_view>

#include "obs/json_read.hpp"
#include "resilience/error.hpp"

namespace dxbsp::svc {

/// The frame magic; the trailing digit is the protocol version.
inline constexpr std::string_view kWireMagic = "DXSVCW1";

/// Frames `payload_json` as a `type` message (header line + payload).
[[nodiscard]] std::string wire_frame(const std::string& type,
                                     const std::string& payload_json);

/// Parses framed bytes that must hold a `type` message and returns its
/// JSON payload. `origin` names the source in error messages.
[[nodiscard]] Expected<obs::JsonValue> wire_parse(std::string_view bytes,
                                                  std::string_view type,
                                                  const std::string& origin);

/// Atomically publishes a framed message at `path` (tmp + rename).
/// Throws Error{kIo} on filesystem failure.
void wire_write_file(const std::string& path, const std::string& type,
                     const std::string& payload_json);

/// Reads and parses the `type` message at `path`. Missing file =
/// Error{kIo}; framing/type/CRC/JSON failure = Error{kCorruptInput}.
[[nodiscard]] Expected<obs::JsonValue> wire_read_file(const std::string& path,
                                                      std::string_view type);

}  // namespace dxbsp::svc
