#pragma once
// The one module that knows how a framed file is encoded, read and
// published (docs/resilience.md §framed files). Five on-disk formats use
// it: DXSNAP01 snapshots (resilience/snapshot.hpp), DXSPL1 spill chunks
// (stream/spill_store.hpp), DXSVCW1 wire messages (svc/wire.hpp),
// dxbsptr2 address traces (workload/trace_io.hpp) and DXFDR1 flight
// rings (obs/flight.hpp). Each format owns its layout and
// validation; this module owns the CRC, the little-endian scalar codec,
// the whole-file read and the crash-atomic tmp -> rename publish.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::resilience {

/// IEEE CRC-32 (the zlib/PNG polynomial). `seed` chains calls.
[[nodiscard]] std::uint32_t crc32(std::span<const unsigned char> data,
                                  std::uint32_t seed = 0) noexcept;

// The binary formats frame with a u32 CRC at `crc_at` covering every
// byte after it (a whole snapshot or spill chunk, one flight record).

/// Stores the CRC of bytes[crc_at + 4, end) at `crc_at`.
void seal_crc(std::span<unsigned char> bytes, std::size_t crc_at) noexcept;

/// "" when the CRC at `crc_at` matches bytes[crc_at + 4, end), else
/// "CRC mismatch (stored S, computed C)". `bytes` must extend past it.
[[nodiscard]] std::string crc_mismatch(std::span<const unsigned char> bytes,
                                       std::size_t crc_at);

// Little-endian scalars. Every format is defined by byte offsets, never
// by struct layout; the simulator only targets little-endian hosts and
// the static_assert keeps that assumption loud.
static_assert(std::endian::native == std::endian::little,
              "framed-file formats assume a little-endian host");

template <typename T>
void store_le(unsigned char* p, T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  std::memcpy(p, &v, sizeof v);
}

template <typename T>
[[nodiscard]] T load_le(const unsigned char* p) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void append_le(std::vector<unsigned char>& out, T v) {
  unsigned char le[sizeof v];
  store_le(le, v);
  out.insert(out.end(), le, le + sizeof v);
}

/// The bytes of a text frame, for crc32 and publish.
[[nodiscard]] inline std::span<const unsigned char> byte_span(
    std::string_view s) noexcept {
  return {reinterpret_cast<const unsigned char*>(s.data()), s.size()};
}

/// File bytes from read_file viewed as text, for text formats.
[[nodiscard]] inline std::string_view text_view(
    std::span<const unsigned char> bytes) noexcept {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Reads the whole file at `path` in one sized read. A missing or
/// unreadable file is Error{kIo}.
[[nodiscard]] Expected<std::vector<unsigned char>> read_file(
    const std::string& path);

/// Whether a publish fsyncs the tmp file before renaming it.
///
/// kFsync (snapshots, spill chunks, traces): the file is the run's
/// durable record; after a machine crash the renamed name must hold the
/// new bytes, never an empty or torn file.
///
/// kRenameOnly (wire messages): rename alone already makes a publish
/// atomic against process death, and a worker rewrites its heartbeat and
/// telemetry every 50 ms. A wire file is never the durable record: the
/// worker's fsynced shard checkpoint is. A torn or missing result
/// message fails the attempt and the shard is leased again
/// (Coordinator::on_result), and torn partial aggregates are ignored
/// (Coordinator::bank_partial), so an fsync there buys nothing.
enum class Durability { kRenameOnly, kFsync };

/// Publish step 1: writes `bytes` to `path` + ".tmp" (retrying EINTR
/// and partial writes, each write() asking for at most `max_write`
/// bytes when non-zero), fsyncs it when `durability` says so, and closes
/// it. Returns "" on success; otherwise removes the torn tmp and returns
/// what failed.
[[nodiscard]] std::string write_tmp(const std::string& path,
                                    std::span<const unsigned char> bytes,
                                    Durability durability,
                                    std::size_t max_write = 0);

/// Publish step 2: renames `path` + ".tmp" over `path`. Returns "" on
/// success; otherwise removes the tmp and returns what failed.
[[nodiscard]] std::string rename_tmp(const std::string& path);

/// Both steps: `path` afterwards holds either its old complete contents
/// or `bytes`, never a torn file. Throws Error{kIo} on failure.
void publish(const std::string& path, std::span<const unsigned char> bytes,
             Durability durability);

}  // namespace dxbsp::resilience
