#include "resilience/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <unordered_set>

#include "resilience/framed_file.hpp"

namespace dxbsp::resilience {

namespace {

constexpr std::array<unsigned char, 8> kMagic = {'D', 'X', 'S', 'N',
                                                 'A', 'P', '0', '1'};
// The CRC follows the u32 version and covers every byte after itself,
// so a flip anywhere in the ids, counts, or payload is caught.
constexpr std::size_t kCrcAt = kMagic.size() + sizeof(std::uint32_t);

// Field order is the format contract: key, rng_state, failed_requests,
// aux[4], then the BulkResult fields in declaration order with
// bank_utilization bit-cast to u64 and the CostBreakdown flattened
// term-by-term (the BankLoadSketch is not persisted — see kRecordBytes).
// Every field is a u64 on disk. Changing this bumps kSnapshotVersion.
// Writer and reader share this one list, so they cannot disagree.
template <typename Record, typename Field>
void for_each_field(Record& r, Field&& field) {
  field(r.key);
  field(r.rng_state);
  field(r.failed_requests);
  for (auto& a : r.aux) field(a);
  auto& b = r.result;
  field(b.cycles);
  field(b.n);
  field(b.max_bank_load);
  field(b.max_proc_requests);
  field(b.last_issue);
  field(b.stall_cycles);
  field(b.port_conflicts);
  field(b.cache_hits);
  field(b.cache_misses);
  field(b.cache_evictions);
  field(b.max_proc_miss);
  field(b.combined);
  field(b.completed);
  field(b.retries);
  field(b.nacks);
  field(b.failovers);
  field(b.degraded_cycles);
  field(b.max_location_contention);
  field(b.bank_utilization);
  field(b.breakdown.issue_gap);
  field(b.breakdown.window_stall);
  field(b.breakdown.latency);
  field(b.breakdown.bank_service);
  field(b.breakdown.retry_backoff);
  field(b.breakdown.failover);
  field(b.breakdown.cache_hit);
}

void put_record(std::vector<unsigned char>& out, const SnapshotRecord& r) {
  for_each_field(r, [&out](const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
      append_le(out, std::bit_cast<std::uint64_t>(v));
    else
      append_le(out, std::uint64_t{v});
  });
}

SnapshotRecord read_record(const unsigned char* p) {
  SnapshotRecord r;
  for_each_field(r, [&p](auto& v) {
    const auto bits = load_le<std::uint64_t>(p);
    p += sizeof bits;
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
      v = std::bit_cast<double>(bits);
    else
      v = bits;
  });
  return r;
}

Error corrupt(const std::string& origin, const std::string& why) {
  return Error(ErrorCode::kCorruptSnapshot, origin + ": " + why);
}

}  // namespace

std::vector<unsigned char> Snapshot::serialize() const {
  std::vector<unsigned char> out;
  out.reserve(kHeaderBytes + records.size() * kRecordBytes);
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  append_le(out, static_cast<std::uint32_t>(kSnapshotVersion));
  append_le(out, std::uint32_t{0});  // CRC placeholder, patched below
  append_le(out, sweep_id);
  append_le(out, std::uint64_t{records.size()});
  append_le(out, kRecordBytes);
  for (const auto& r : records) put_record(out, r);
  seal_crc(out, kCrcAt);
  return out;
}

Expected<Snapshot> Snapshot::parse(std::span<const unsigned char> bytes,
                                   const std::string& origin) {
  if (bytes.size() < kHeaderBytes)
    return corrupt(origin, "file shorter than the snapshot header (" +
                               std::to_string(bytes.size()) + " bytes)");
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
    return corrupt(origin, "bad magic (not a dxbsp snapshot)");
  const unsigned char* p = bytes.data() + kMagic.size();
  const auto version = load_le<std::uint32_t>(p);
  const auto sweep_id = load_le<std::uint64_t>(p + 8);
  const auto count = load_le<std::uint64_t>(p + 16);
  const auto record_bytes = load_le<std::uint64_t>(p + 24);
  if (version != kSnapshotVersion) {
    // A retired version is only believed when the record size agrees
    // with what that version actually wrote — a self-consistent old
    // header is a stale checkpoint (kConfig: restart the sweep), while
    // a version field flipped by bit rot disagrees with the current
    // record size and stays kCorruptSnapshot. The version field sits
    // outside the CRC span, so this cross-check is its only guard.
    struct Retired {
      std::uint32_t version;
      std::uint64_t record_bytes;
    };
    constexpr Retired kRetired[] = {{1, (3 + 4 + 14 + 1) * 8},
                                    {2, (3 + 4 + 15 + 1 + 6) * 8}};
    for (const Retired& old : kRetired)
      if (version == old.version && record_bytes == old.record_bytes)
        return Error(ErrorCode::kConfig,
                     origin + ": snapshot format version " +
                         std::to_string(version) +
                         " predates this build (current " +
                         std::to_string(kSnapshotVersion) +
                         "); restart the sweep from scratch");
    return corrupt(origin, "unsupported snapshot version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kSnapshotVersion) + ")");
  }
  if (record_bytes != kRecordBytes)
    return corrupt(origin, "record size " + std::to_string(record_bytes) +
                               " does not match this build's " +
                               std::to_string(kRecordBytes));

  // The header count is untrusted: bound it by the bytes actually
  // present before believing it (no allocation sized from the header).
  const std::uint64_t payload = bytes.size() - kHeaderBytes;
  if (count > payload / kRecordBytes || payload != count * kRecordBytes)
    return corrupt(origin, "header claims " + std::to_string(count) +
                               " records but file holds " +
                               std::to_string(payload) + " payload bytes");

  if (const std::string bad = crc_mismatch(bytes, kCrcAt); !bad.empty())
    return corrupt(origin, bad);

  Snapshot snap;
  snap.sweep_id = sweep_id;
  snap.records.reserve(count);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(count);
  const unsigned char* rec = bytes.data() + kHeaderBytes;
  for (std::uint64_t i = 0; i < count; ++i, rec += kRecordBytes) {
    SnapshotRecord r = read_record(rec);
    if (!seen.insert(r.key).second)
      return corrupt(origin,
                     "duplicate point key " + std::to_string(r.key));
    snap.records.push_back(std::move(r));
  }
  return snap;
}

Expected<Snapshot> Snapshot::load(const std::string& path) {
  Expected<std::vector<unsigned char>> bytes = read_file(path);
  if (!bytes) return bytes.error();
  return parse(bytes.value(), path);
}

CheckpointWriter::CheckpointWriter(std::string path, std::uint64_t sweep_id)
    : path_(std::move(path)), sweep_id_(sweep_id) {
  if (path_.empty())
    raise(ErrorCode::kConfig, "CheckpointWriter: empty path");
}

void CheckpointWriter::flush(std::span<const SnapshotRecord> records) {
  Snapshot snap;
  snap.sweep_id = sweep_id_;
  snap.records.assign(records.begin(), records.end());
  publish(path_, snap.serialize(), Durability::kFsync);
}

}  // namespace dxbsp::resilience
