#include "stream/spill_store.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "obs/metrics.hpp"
#include "resilience/framed_file.hpp"

namespace dxbsp::stream {

namespace {

using resilience::load_le;
using resilience::store_le;

constexpr std::array<unsigned char, 6> kSpillMagic = {'D', 'X', 'S',
                                                      'P', 'L', '1'};
// CRC covers every byte after the CRC field itself.
constexpr std::size_t kCrcAt = kSpillMagic.size() + sizeof(std::uint16_t);

Error corrupt(const std::string& origin, const std::string& why) {
  return Error(ErrorCode::kCorruptSnapshot, origin + ": " + why);
}

// Adds the host nanoseconds since `t0` to the kHost counter `name`: the
// spill.*_ns split of a chunk's cost between CPU and disk.
void add_ns_since(const char* name, std::chrono::steady_clock::time_point t0) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
  obs::MetricsRegistry::global()
      .counter(name, obs::Stability::kHost)
      .add(static_cast<std::uint64_t>(ns.count()));
}

}  // namespace

SpillStore::SpillStore(SpillOptions opt) : opt_(std::move(opt)) {
  if (opt_.dir.empty())
    raise(ErrorCode::kConfig, "SpillStore: empty spill directory");
  std::error_code ec;
  std::filesystem::create_directories(opt_.dir, ec);
  if (ec)
    raise(ErrorCode::kIo, "SpillStore: cannot create " + opt_.dir + ": " +
                              ec.message());
  // A crash between fsync and rename leaves a *.tmp behind; it is by
  // construction redundant (its chunk is either fully renamed or will be
  // re-spilled after resume), so sweep them instead of guessing.
  for (const auto& entry : std::filesystem::directory_iterator(opt_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path(), ec);
      ++orphans_cleaned_;
    }
  }
  if (orphans_cleaned_ > 0)
    obs::MetricsRegistry::global()
        .counter("spill.orphans_cleaned", obs::Stability::kHost)
        .add(orphans_cleaned_);
}

std::string SpillStore::chunk_path(std::uint64_t partition,
                                   std::uint64_t chunk) const {
  return opt_.dir + "/p" + std::to_string(partition) + "-c" +
         std::to_string(chunk) + ".spl";
}

std::vector<unsigned char> SpillStore::encode(
    std::uint64_t stream_id, std::uint64_t partition, std::uint64_t chunk,
    std::span<const std::uint64_t> data) {
  // The payload is the elements' native bytes: on the little-endian
  // hosts framed_file.hpp admits, one memcpy equals a store_le each.
  std::vector<unsigned char> out(kSpillHeaderBytes + data.size_bytes());
  unsigned char* p = std::copy(kSpillMagic.begin(), kSpillMagic.end(),
                               out.data());
  store_le(p, static_cast<std::uint16_t>(kSpillVersion));
  p = out.data() + kCrcAt + sizeof(std::uint32_t);  // CRC sealed below
  for (const std::uint64_t v : {stream_id, partition, chunk,
                                std::uint64_t{data.size()}}) {
    store_le(p, v);
    p += sizeof v;
  }
  if (!data.empty()) std::memcpy(p, data.data(), data.size_bytes());
  resilience::seal_crc(out, kCrcAt);
  return out;
}

Expected<SpillChunk> SpillStore::parse(std::span<const unsigned char> bytes,
                                       const std::string& origin) {
  if (bytes.size() < kSpillHeaderBytes)
    return corrupt(origin, "file shorter than the spill header (" +
                               std::to_string(bytes.size()) + " bytes)");
  if (!std::equal(kSpillMagic.begin(), kSpillMagic.end(), bytes.begin()))
    return corrupt(origin, "bad magic (not a dxbsp spill chunk)");
  const auto version = load_le<std::uint16_t>(bytes.data() + kSpillMagic.size());
  if (version != kSpillVersion)
    return corrupt(origin, "unsupported spill version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kSpillVersion) + ")");
  const unsigned char* p = bytes.data() + kCrcAt + sizeof(std::uint32_t);
  SpillChunk out;
  out.stream_id = load_le<std::uint64_t>(p);
  out.partition = load_le<std::uint64_t>(p + 8);
  out.chunk = load_le<std::uint64_t>(p + 16);
  const auto count = load_le<std::uint64_t>(p + 24);

  // The header count is untrusted: bound it by the bytes actually
  // present before believing it (no allocation sized from the header).
  const std::uint64_t payload = bytes.size() - kSpillHeaderBytes;
  if (count > payload / sizeof(std::uint64_t) ||
      payload != count * sizeof(std::uint64_t))
    return corrupt(origin, "header claims " + std::to_string(count) +
                               " elements but file holds " +
                               std::to_string(payload) + " payload bytes");

  if (const std::string bad = resilience::crc_mismatch(bytes, kCrcAt);
      !bad.empty())
    return corrupt(origin, bad);

  out.data.resize(count);
  if (count != 0)
    std::memcpy(out.data.data(), bytes.data() + kSpillHeaderBytes, payload);
  return out;
}

void SpillStore::write(std::uint64_t partition, std::uint64_t chunk,
                       std::span<const std::uint64_t> data) {
  const std::uint64_t ordinal = ++write_seq_;
  const fault::DiskFault fault = (opt_.faults != nullptr)
                                     ? opt_.faults->disk_fault()
                                     : fault::DiskFault::kNone;
  const std::uint64_t fault_param =
      (opt_.faults != nullptr) ? opt_.faults->disk_param() : 0;

  // disk=slow:N — the device answers, just late. Sleep in small steps
  // polling the cancel token so its deadline or stall window can revoke
  // a pathologically slow spill instead of waiting it out.
  if (fault == fault::DiskFault::kSlow) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(fault_param);
    while (std::chrono::steady_clock::now() < until) {
      if (opt_.cancel != nullptr)
        opt_.cancel->raise_if_expired("spill write (slow disk)");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const auto encode_start = std::chrono::steady_clock::now();
  std::vector<unsigned char> bytes =
      encode(opt_.stream_id, partition, chunk, data);
  add_ns_since("spill.encode_ns", encode_start);
  // disk=corrupt — the device acks bytes it did not store faithfully:
  // flip one payload bit after the CRC was computed, so the damage is
  // invisible to write() and caught by the first read-back validation.
  if (fault == fault::DiskFault::kCorrupt && !bytes.empty())
    bytes.back() ^= 0x01U;

  const std::string path = chunk_path(partition, chunk);
  // disk=short_write — every write() syscall stores at most 100 bytes
  // (not a multiple of 8, so element boundaries split too); exercises
  // the partial-write path constantly.
  const std::size_t max_write =
      fault == fault::DiskFault::kShortWrite ? 100 : 0;
  const std::uint64_t attempts = opt_.write_retries + 1;
  std::string last_error;

  for (std::uint64_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0)
      obs::MetricsRegistry::global().counter("spill.write_retries").add(1);
    if (opt_.cancel != nullptr)
      opt_.cancel->raise_if_expired("spill write");

    // disk=enospc:K — writes succeed until the K-th chunk, then the
    // device is full forever: every attempt fails the same way and the
    // bounded retry loop converts it into a typed Error{kIo}.
    if (fault == fault::DiskFault::kEnospc && ordinal >= fault_param) {
      last_error = "write failed for " + path + ".tmp: " +
                   std::strerror(ENOSPC) + " (injected)";
      continue;
    }

    const auto write_start = std::chrono::steady_clock::now();
    last_error = resilience::write_tmp(path, bytes,
                                       resilience::Durability::kFsync,
                                       max_write);
    add_ns_since("spill.publish_ns", write_start);
    if (!last_error.empty()) continue;

    // The worst crash point a spill tier has: tmp durable, rename
    // pending. phase=spill:K chaos fires here so crash tests land on
    // exactly this state every run.
    if (opt_.chaos != nullptr) {
      const svc::ChaosEvent* ev =
          opt_.chaos->match(0, 0, svc::ChaosPhase::kSpill, ordinal);
      if (ev != nullptr) {
        if (ev->action == svc::ChaosAction::kHang && opt_.cancel != nullptr) {
          // In-process hang: stop heartbeating and poll until the
          // token's stall window runs out (kStalled ->
          // Error{kInterrupted}).
          while (true) {
            opt_.cancel->raise_if_expired("spill write (chaos hang)");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        svc::chaos_execute(*ev);  // kill / exit / detached hang
      }
    }

    const auto rename_start = std::chrono::steady_clock::now();
    last_error = resilience::rename_tmp(path);
    add_ns_since("spill.publish_ns", rename_start);
    if (!last_error.empty()) continue;
    ++chunks_written_;
    bytes_written_ += bytes.size();
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("spill.chunks_written").add(1);
    reg.counter("spill.bytes_written").add(bytes.size());
    return;
  }
  raise(ErrorCode::kIo, "SpillStore: giving up after " +
                            std::to_string(attempts) + " attempts: " +
                            last_error);
}

Expected<std::vector<std::uint64_t>> SpillStore::read(
    std::uint64_t partition, std::uint64_t chunk) const {
  const std::string path = chunk_path(partition, chunk);
  const auto read_start = std::chrono::steady_clock::now();
  Expected<std::vector<unsigned char>> bytes = resilience::read_file(path);
  add_ns_since("spill.read_ns", read_start);
  if (!bytes) return bytes.error();
  const auto decode_start = std::chrono::steady_clock::now();
  Expected<SpillChunk> parsed = parse(bytes.value(), path);
  add_ns_since("spill.decode_ns", decode_start);
  if (!parsed) return parsed.error();
  const SpillChunk& c = parsed.value();
  if (c.stream_id != opt_.stream_id)
    return corrupt(path, "chunk belongs to stream " +
                             std::to_string(c.stream_id) + ", expected " +
                             std::to_string(opt_.stream_id));
  if (c.partition != partition || c.chunk != chunk)
    return corrupt(path, "chunk labelled p" + std::to_string(c.partition) +
                             "-c" + std::to_string(c.chunk) +
                             " found under p" + std::to_string(partition) +
                             "-c" + std::to_string(chunk));
  obs::MetricsRegistry::global().counter("spill.chunks_read").add(1);
  return std::move(parsed).value().data;
}

void SpillStore::remove(std::uint64_t partition, std::uint64_t chunk) noexcept {
  std::remove(chunk_path(partition, chunk).c_str());
}

}  // namespace dxbsp::stream
