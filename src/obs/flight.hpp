#pragma once
// Crash-safe flight recorder (docs/observability.md §fleet): a
// fixed-size mmap'd ring file each fleet worker continuously writes with
// its most recent protocol-phase transitions, trace-event tails and
// engine-selector decisions, so a worker that dies by SIGKILL — the one
// failure mode that leaves no log line, no report and no result message
// — still leaves a forensically useful tail on disk.
//
// Why mmap: the writer never buffers. Every append lands in the page
// cache immediately, and dirty pages belong to the kernel, not the
// process — a SIGKILL (or any abnormal death) loses nothing that was
// already appended. Only a whole-machine crash can lose the tail, and
// that failure mode already loses the worker's checkpoint fsync
// ordering guarantees anyway.
//
// File layout (`DXFDR1`, little-endian, fixed geometry; framing, CRC
// span and the bytes outside it in docs/resilience.md §framed files):
//
//   [64-byte header] magic "DXFDR1\0\0", u32 version, u32 record_bytes,
//                    u64 slots, u64 pid, zero padding
//   [slots x 64-byte records]  slot = seq % slots
//
// Each record is CRC-framed independently (resilience::crc32 over the
// 60 bytes after the crc field), so the reader tolerates torn slots — a
// record half-written at the instant of death fails its CRC and is
// skipped and counted, never trusted and never fatal. Records carry a
// monotone sequence number and a host-monotonic timestamp in µs since
// the worker's epoch (the same clock its heartbeat `mono_us` carries,
// so flight tails line up with the stitched fleet timeline).
//
// The reader (flight_read = read_file + flight_parse) is the harvesting
// side: the coordinator runs it after any revocation/SIGKILL/poison and
// summarises the decoded tails as PostMortemInfo, which it writes to the
// fleet directory as post_mortem.json; tools/flight_reader is the
// standalone CLI over the same decoder.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::obs {

class JsonWriter;

inline constexpr std::uint32_t kFlightVersion = 1;
inline constexpr std::size_t kFlightHeaderBytes = 64;
inline constexpr std::size_t kFlightRecordBytes = 64;
/// Default ring file size (header + slots); 64 KiB holds ~1000 records.
inline constexpr std::size_t kFlightDefaultBytes = 64 * 1024;

enum class FlightKind : std::uint8_t {
  kPhase = 0,     ///< protocol-phase transition; sub = FlightPhase
  kTrace = 1,     ///< trace-event tail entry; sub = obs::TraceKind
  kSelector = 2,  ///< engine decision; sub = obs::EngineChoice, a = step,
                  ///< b = n, c = 0 (unused), d = measured cycles
  kNote = 3,      ///< free-form marker
};
inline constexpr std::size_t kFlightKinds = 4;

/// Worker protocol phases, mirroring svc::ChaosPhase plus the chaos
/// marker itself (recorded immediately before injected faults execute,
/// so a post-mortem can tell an injected kill from a real one).
enum class FlightPhase : std::uint8_t {
  kLease = 0,   ///< lease accepted; a = resume_points, c = total, d = attempt
  kPoint = 1,   ///< point completed; a = covered, b = completed, c = total
  kResult = 2,  ///< result published; a = completed, b = resumed, c = total
  kChaos = 3,   ///< injected fault firing; a = phase, b = point
};
inline constexpr std::size_t kFlightPhases = 4;

[[nodiscard]] const char* flight_kind_name(FlightKind k) noexcept;
[[nodiscard]] const char* flight_phase_name(FlightPhase p) noexcept;

/// One decoded ring record.
struct FlightRecord {
  FlightKind kind = FlightKind::kNote;
  std::uint8_t sub = 0;      ///< kind-specific subtype (see FlightKind)
  std::uint64_t seq = 0;     ///< monotone append index
  std::uint64_t t_us = 0;    ///< µs since the writer's epoch
  std::uint64_t a = 0, b = 0, c = 0, d = 0;  ///< kind-specific payload
};

/// Single-writer appender over the mmap'd ring. Opening truncates and
/// recreates the file (a ring holds exactly one attempt's tail); every
/// append is crash-durable against process death by construction.
class FlightRecorder {
 public:
  /// Throws Error{kIo} when the file cannot be created/mapped and
  /// Error{kConfig} for a size too small to hold one record.
  FlightRecorder(const std::string& path,
                 std::chrono::steady_clock::time_point epoch,
                 std::size_t bytes = kFlightDefaultBytes);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one CRC-framed record, stamping seq and t_us. Never throws:
  /// the ring is observability, not control flow.
  void append(FlightKind kind, std::uint8_t sub, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0,
              std::uint64_t d = 0) noexcept;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t slots() const noexcept { return slots_; }
  [[nodiscard]] std::uint64_t appended() const noexcept { return seq_; }

 private:
  std::string path_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t slots_ = 0;
  std::uint64_t seq_ = 0;
  unsigned char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
};

/// A harvested ring: every valid record, oldest first (by seq).
struct FlightTail {
  std::uint64_t slots = 0;
  std::uint64_t pid = 0;       ///< writer pid from the header
  std::uint64_t valid = 0;     ///< records that passed their CRC
  std::uint64_t torn = 0;      ///< slots with data that failed the CRC
  std::vector<FlightRecord> records;
};

/// Decodes the bytes of a flight-recorder file, tolerating torn slots
/// (counted, not fatal). Bad magic/version/geometry, or a file size other
/// than header + slots records, is Error{kCorruptInput}. Never throws —
/// the harvesting side must treat a garbage file as evidence, not as a
/// crash. `origin` names the source in error messages.
[[nodiscard]] Expected<FlightTail> flight_parse(
    std::span<const unsigned char> bytes, const std::string& origin);

/// Reads and decodes the flight-recorder file at `path`. Missing file =
/// Error{kIo}; otherwise as flight_parse.
[[nodiscard]] Expected<FlightTail> flight_read(const std::string& path);

/// One-line human rendering of a record ("phase point completed=3/16
/// attempt=0", "trace bank_busy ts=120 dur=4 ..."), shared by
/// tools/flight_reader and the post-mortem harvester.
[[nodiscard]] std::string flight_describe(const FlightRecord& r);

/// The record's display name: the phase name for kPhase records, the
/// trace-kind name for kTrace, the engine name for kSelector.
[[nodiscard]] std::string flight_record_name(const FlightRecord& r);

/// post_mortem.json: schema of the PostMortemInfo document.
inline constexpr std::uint64_t kPostMortemSchemaVersion = 1;

/// Flight-recorder tails harvested from dead or revoked worker attempts
/// (docs/observability.md §fleet). Everything here is host-dependent —
/// timestamps, record counts, which attempt died — so it lives in the
/// fleet directory as post_mortem.json, never in the run report.
struct PostMortemInfo {
  struct Event {
    std::string kind;   ///< flight_kind_name: phase/trace/selector/note
    std::string name;   ///< flight_record_name: e.g. "point", "arrive"
    std::uint64_t seq = 0;
    std::uint64_t t_us = 0;  ///< µs since the worker's epoch
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
  };
  struct Harvest {
    std::string shard;       ///< "index/count"
    std::uint64_t attempt = 0;
    std::string why;         ///< what killed the attempt (reap/stall text)
    std::string last_phase;  ///< last protocol phase entered (not chaos)
    std::uint64_t last_point = 0;  ///< points covered at the last point phase
    std::uint64_t records = 0;     ///< valid flight records in the ring
    std::uint64_t torn = 0;        ///< CRC-failed slots (death mid-append)
    std::vector<Event> events;     ///< tail of the ring, oldest first
  };
  std::vector<Harvest> harvests;  ///< in death order

  [[nodiscard]] bool empty() const noexcept { return harvests.empty(); }
};

/// The post_mortem.json object's members: schema_version, harvests (the
/// count) and deaths[], one object per harvest.
void write_json(JsonWriter& w, const PostMortemInfo& pm);

}  // namespace dxbsp::obs
