#pragma once
// Versioned, CRC-guarded binary snapshots of in-progress sweep state.
//
// A sweep (one bench binary's parameter grid) is a set of points, each
// identified by a caller-chosen 64-bit key. A Snapshot records, for
// every completed point, the key, the RNG substream seed the point was
// generated with, the full BulkResult telemetry, and a few bench-defined
// auxiliary words — everything needed to re-emit that point's output
// rows without re-simulating, so a resumed sweep is byte-identical to an
// uninterrupted one.
//
// On-disk layout (little-endian, fixed field order; framing, CRC span
// and publish durability in docs/resilience.md §framed files):
//
//   u8  magic[8]   "DXSNAP01"
//   u32 version    (currently 3)
//   u32 crc32      IEEE CRC-32 over every byte AFTER this field
//   u64 sweep_id   fingerprint of (bench id, grid parameters, seed)
//   u64 point_count
//   u64 record_bytes   serialized size of one record (format guard)
//   records[point_count], each kRecordBytes long
//
// Loading validates magic, version, record size, payload length against
// the actual file size (before any allocation sized from the header),
// the CRC, and key uniqueness; any mismatch is Error{kCorruptSnapshot}.
// One deliberate exception: a header whose version AND record size agree
// on a *retired* format (v1 or v2) is a well-formed old checkpoint, not
// damage, and is refused with Error{kConfig} so the caller knows to
// restart the sweep rather than hunt for disk corruption.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "resilience/error.hpp"
#include "sim/machine.hpp"

namespace dxbsp::resilience {

/// One completed grid point.
struct SnapshotRecord {
  std::uint64_t key = 0;        ///< caller-chosen grid-point id (unique)
  std::uint64_t rng_state = 0;  ///< RNG substream seed the point used
  std::uint64_t failed_requests = 0;  ///< degraded-operation count (0 = ok)
  std::array<std::uint64_t, 4> aux{};  ///< bench-defined (bit-cast doubles ok)
  sim::BulkResult result;       ///< full simulator telemetry
};

/// Serialized size of one record; bumping the format bumps kVersion.
/// Version 2 extended the record with max_location_contention and the
/// six CostBreakdown terms (PR 5 attribution); version 3 with the cache
/// tier's cache_misses / cache_evictions / max_proc_miss counters and
/// the seventh (cache_hit) breakdown term (PR 8). The per-op
/// BankLoadSketch is report-side only and deliberately not persisted —
/// no bench prints it, so resumed sweeps stay byte-identical without it.
inline constexpr std::uint64_t kSnapshotVersion = 3;
inline constexpr std::uint64_t kRecordBytes = (3 + 4 + 18 + 1 + 7) * 8;
inline constexpr std::uint64_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;

/// A loaded (or in-construction) snapshot.
struct Snapshot {
  std::uint64_t sweep_id = 0;
  std::vector<SnapshotRecord> records;

  /// Serializes to the on-disk byte layout (header + records + CRC).
  [[nodiscard]] std::vector<unsigned char> serialize() const;

  /// Parses bytes in the on-disk layout. Never trusts a length field
  /// without checking it against the bytes actually present.
  [[nodiscard]] static Expected<Snapshot> parse(
      std::span<const unsigned char> bytes, const std::string& origin);

  /// Reads and parses `path`. A missing file is Error{kIo}; any
  /// validation failure is Error{kCorruptSnapshot}.
  [[nodiscard]] static Expected<Snapshot> load(const std::string& path);
};

/// Crash-atomic checkpoint persistence: each flush publishes the
/// complete snapshot over `path` (tmp -> fsync -> rename), so the file
/// is always the old or the new complete snapshot, never a torn one.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, std::uint64_t sweep_id);

  /// Persists the given records; throws Error{kIo} on any failure.
  void flush(std::span<const SnapshotRecord> records);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::uint64_t sweep_id_;
};

}  // namespace dxbsp::resilience
