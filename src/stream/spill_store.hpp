#pragma once
// Partitioned spill tier for the streaming executor: CRC-guarded chunk
// files published crash-atomically with fsync (resilience/framed_file,
// docs/resilience.md §framed files), validated byte-for-byte on the way
// back in. A spill file on disk is always either complete and
// self-checking or absent — never torn — and a chunk that fails any
// validation decodes to a typed Error, never a crash or silent bad data.
//
// On-disk layout of one chunk (little-endian):
//
//   u8  magic[6]  "DXSPL1"
//   u16 version   (currently 1)
//   u32 crc32     IEEE CRC-32 over every byte AFTER this field
//   u64 stream_id fingerprint of the stream config (foreign-file guard)
//   u64 partition
//   u64 chunk     per-partition spill sequence number
//   u64 count     payload element count
//   u64 payload[count]
//
// Files are named p<partition>-c<chunk>.spl inside the spill directory,
// which is created if missing and swept of orphaned *.tmp files (a crash
// mid-spill leaves at most one) on startup.
//
// The spill path is a first-class fault domain: a FaultPlan's disk
// grammar (disk=slow:N | short_write | enospc:K | corrupt) injects
// device misbehaviour at the write() layer, and a ChaosPlan
// phase=spill:K event fires at the worst crash point (tmp fsynced,
// rename pending). Injected or real transient failures surface as
// bounded retries and then Error{kIo}; a hang stops beating the cancel
// token but keeps polling it, so the token's stall window turns it into
// Error{kInterrupted} instead of a wedge (docs/streaming.md §failure
// modes).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "resilience/cancel.hpp"
#include "resilience/error.hpp"
#include "svc/chaos.hpp"

namespace dxbsp::stream {

inline constexpr std::uint64_t kSpillVersion = 1;
inline constexpr std::uint64_t kSpillHeaderBytes = 6 + 2 + 4 + 8 + 8 + 8 + 8;

/// One decoded spill chunk.
struct SpillChunk {
  std::uint64_t stream_id = 0;
  std::uint64_t partition = 0;
  std::uint64_t chunk = 0;
  std::vector<std::uint64_t> data;
};

struct SpillOptions {
  std::string dir;
  std::uint64_t stream_id = 0;
  /// Bounded retry budget for transient write failures (attempts =
  /// retries + 1). Exhaustion is Error{kIo}.
  std::uint64_t write_retries = 3;
  /// Disk fault injection (nullptr / DiskFault::kNone = healthy device).
  const fault::FaultPlan* faults = nullptr;
  /// Chaos events (phase=spill:K, matched as shard 0, attempt 0)
  /// executed mid-write; nullptr = none.
  const svc::ChaosPlan* chaos = nullptr;
  /// Polled during injected hangs/slow waits, which do not beat it, so
  /// its deadline or stall window revokes a wedged spill instead of
  /// waiting forever.
  const resilience::CancelToken* cancel = nullptr;
};

class SpillStore {
 public:
  /// Creates the directory if missing and removes orphaned *.tmp files.
  /// Throws Error{kIo} when the directory cannot be created, Error
  /// {kConfig} on an empty path.
  explicit SpillStore(SpillOptions opt);

  /// Writes one chunk crash-atomically with bounded retries; throws
  /// Error{kIo} when the device stays unusable (e.g. ENOSPC) and
  /// Error{kInterrupted} when a hang is revoked by the stall window.
  void write(std::uint64_t partition, std::uint64_t chunk,
             std::span<const std::uint64_t> data);

  /// Reads one chunk back. Any validation failure (bad magic/version/
  /// CRC/length, or a chunk belonging to a different stream/partition)
  /// is Error{kCorruptSnapshot}; a missing file is Error{kIo}.
  [[nodiscard]] Expected<std::vector<std::uint64_t>> read(
      std::uint64_t partition, std::uint64_t chunk) const;

  /// Best-effort removal of a consumed chunk (keeps long runs' disk
  /// footprint proportional to what is still unprocessed).
  void remove(std::uint64_t partition, std::uint64_t chunk) noexcept;

  [[nodiscard]] const std::string& dir() const noexcept { return opt_.dir; }
  [[nodiscard]] std::string chunk_path(std::uint64_t partition,
                                       std::uint64_t chunk) const;

  // ---- Stats (also published as spill.* metrics) ----
  [[nodiscard]] std::uint64_t chunks_written() const noexcept {
    return chunks_written_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t orphans_cleaned() const noexcept {
    return orphans_cleaned_;
  }

  // ---- Format (exposed for tests/stream_test.cpp and tools/spill_fsck)

  /// Serializes one chunk into the on-disk byte layout.
  [[nodiscard]] static std::vector<unsigned char> encode(
      std::uint64_t stream_id, std::uint64_t partition, std::uint64_t chunk,
      std::span<const std::uint64_t> data);

  /// Parses bytes in the on-disk layout; never trusts a length field
  /// without checking it against the bytes actually present.
  [[nodiscard]] static Expected<SpillChunk> parse(
      std::span<const unsigned char> bytes, const std::string& origin);

 private:
  SpillOptions opt_;
  std::uint64_t write_seq_ = 0;  ///< 1-based ordinal of write() calls
  std::uint64_t chunks_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t orphans_cleaned_ = 0;
};

}  // namespace dxbsp::stream
