#pragma once
// Crash-safe flight recorder (docs/observability.md §fleet): a
// fixed-size mmap'd ring file each fleet worker continuously writes with
// its protocol-phase transitions and engine-selector decisions. It is
// the only record a worker keeps of itself, so a worker that dies by
// SIGKILL — the one failure mode that leaves no log line, no report and
// no final aggregates message — leaves the same record as one that
// finished.
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
// the worker's epoch (the same clock its heartbeat `mono_us` carries, so
// the coordinator can shift a ring onto its own clock).
//
// The reader (flight_read = read_file + flight_parse) is the harvesting
// side: the coordinator reads every attempt's ring once when its lease
// ends, draws it as that attempt's lane of the fleet timeline
// (append_flight_lane) and, for an attempt that died, summarises it as
// PostMortemInfo, written to the fleet directory as post_mortem.json;
// tools/flight_reader is the standalone CLI over the same decoder.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::obs {

class EventLog;
class JsonWriter;

inline constexpr std::uint32_t kFlightVersion = 1;
inline constexpr std::size_t kFlightHeaderBytes = 64;
inline constexpr std::size_t kFlightRecordBytes = 64;
/// Default ring file size (header + slots): 1023 records, two per sweep
/// point (selector + point phase), many times the largest fleet grid.
inline constexpr std::size_t kFlightDefaultBytes = 64 * 1024;

/// Record kinds. Value 1 once held trace-event tails and is retired: the
/// reader counts a slot naming it, like any unknown kind, as torn.
enum class FlightKind : std::uint8_t {
  kPhase = 0,     ///< protocol-phase transition; sub = FlightPhase
  kSelector = 2,  ///< engine decision; sub = obs::EngineChoice, a = step,
                  ///< b = n, c = 0 (unused), d = measured cycles
  kNote = 3,      ///< free-form marker
};

/// Worker protocol phases, mirroring svc::ChaosPhase plus the chaos
/// marker itself (recorded immediately before injected faults execute,
/// so a post-mortem can tell an injected kill from a real one).
enum class FlightPhase : std::uint8_t {
  kLease = 0,   ///< lease accepted; a = resume_points, c = total, d = attempt
  kPoint = 1,   ///< point completed; a = covered, b = completed, c = total
  kResult = 2,  ///< sweep done; a = completed, b = resumed, c = total
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
/// attempt=0", "selector soa step=2 n=16384 measured=..."), shared by
/// tools/flight_reader and the fleet timeline.
[[nodiscard]] std::string flight_describe(const FlightRecord& r);

/// The record's display name: the phase name for kPhase records, the
/// engine name for kSelector.
[[nodiscard]] std::string flight_record_name(const FlightRecord& r);

/// Draws one attempt's harvested ring on lane `tid` of the fleet
/// timeline, each record shifted by `offset_us` onto the log's clock:
/// a kPoint phase record becomes a "point" span from the previous phase
/// record (from the oldest surviving record for the first), every other
/// record an instant named by flight_record_name ("selector <engine>"
/// for decisions). Each event's args carry the record's seq and its
/// flight_describe line. A ring that wrapped (oldest surviving seq > 0)
/// says so with one "ring wrapped" instant at its oldest record; an
/// unreadable ring adds nothing, leaving the lane to the coordinator's
/// own events.
void append_flight_lane(EventLog& log, std::uint64_t tid,
                        const Expected<FlightTail>& tail,
                        std::uint64_t offset_us);

/// post_mortem.json: schema of the PostMortemInfo document.
inline constexpr std::uint64_t kPostMortemSchemaVersion = 1;

/// Flight-recorder tails harvested from dead or revoked worker attempts
/// (docs/observability.md §fleet). Everything here is host-dependent —
/// timestamps, record counts, which attempt died — so it lives in the
/// fleet directory as post_mortem.json, never in the run report.
struct PostMortemInfo {
  struct Event {
    std::string kind;   ///< flight_kind_name: phase/selector/note
    std::string name;   ///< flight_record_name: e.g. "point", "soa"
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
