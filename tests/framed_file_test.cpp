// Framed-file tests (docs/resilience.md §framed files): one corruption
// harness over the five on-disk formats, a golden encoding per format,
// the CRC-32 against a reference, and the shared publish helpers.
//
// The harness runs every truncation and every single-bit flip of a valid
// encoding through the format's own parse, in memory. DXSNAP01, DXSPL1,
// DXSVCW1 and dxbsptr2 traces must reject every mutant with their error
// code. A DXFDR1 ring tolerates torn slots by design, so a mutant may
// decode; it must never throw, keep the ring's geometry, and hold only
// records that were written, with identical fields.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight.hpp"
#include "resilience/error.hpp"
#include "resilience/framed_file.hpp"
#include "resilience/snapshot.hpp"
#include "stream/spill_store.hpp"
#include "svc/wire.hpp"
#include "test_tmp.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace dxbsp;
using Bytes = std::vector<unsigned char>;

struct Format {
  Bytes bytes;     ///< a valid encoding
  Bytes pinned;    ///< the bytes the golden case pins (flight: masked)
  ErrorCode code = ErrorCode::kInternal;  ///< what every rejection carries
  bool may_accept = false;  ///< flight: parse itself checks what decodes
  /// Parses one mutant through the format's parse; nullopt = accepted.
  std::function<std::optional<Error>(std::span<const unsigned char>,
                                     const std::string&)>
      parse;
};

template <typename T>
std::optional<Error> error_of(const Expected<T>& r) {
  if (r.ok()) return std::nullopt;
  return r.error();
}

::testing::AssertionResult verdict(const Format& f,
                                   std::span<const unsigned char> mutant,
                                   const std::string& label) {
  std::optional<Error> err;
  try {
    err = f.parse(mutant, label);
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "threw: " << e.what();
  }
  if (!err)
    return f.may_accept ? ::testing::AssertionSuccess()
                        : ::testing::AssertionFailure() << "parsed OK";
  if (err->code() != f.code)
    return ::testing::AssertionFailure() << "wrong error: " << err->what();
  return ::testing::AssertionSuccess();
}

Format snapshot_format() {
  resilience::Snapshot s;
  s.sweep_id = 0x5eedf00dULL;
  for (std::uint64_t k = 0; k < 3; ++k) {
    resilience::SnapshotRecord r;
    r.key = 10 + k;
    r.rng_state = 0x9e3779b97f4a7c15ULL * (k + 1);
    r.failed_requests = k;
    r.aux = {k, 2 * k, 3 * k, 4 * k};
    r.result.cycles = 1000 + k;
    r.result.n = 64;
    r.result.max_bank_load = 5 + k;
    r.result.cache_misses = k;
    r.result.max_location_contention = 3 + k;
    r.result.bank_utilization = 0.25 * static_cast<double>(k + 1);
    r.result.breakdown.bank_service = 7 * k;
    r.result.breakdown.cache_hit = k;
    s.records.push_back(r);
  }
  Format f;
  f.bytes = s.serialize();
  f.pinned = f.bytes;
  f.code = ErrorCode::kCorruptSnapshot;
  f.parse = [](std::span<const unsigned char> m, const std::string& label) {
    return error_of(resilience::Snapshot::parse(m, label));
  };
  return f;
}

Format spill_format() {
  Format f;
  f.bytes = stream::SpillStore::encode(9, 2, 1, std::vector<std::uint64_t>{
                                                    101, 202, 303, 404});
  f.pinned = f.bytes;
  f.code = ErrorCode::kCorruptSnapshot;
  f.parse = [](std::span<const unsigned char> m, const std::string& label) {
    return error_of(stream::SpillStore::parse(m, label));
  };
  return f;
}

Format wire_format() {
  const std::string framed = svc::wire_frame("result", "{\"points\":12}");
  Format f;
  f.bytes.assign(framed.begin(), framed.end());
  f.pinned = f.bytes;
  f.code = ErrorCode::kCorruptInput;
  f.parse = [](std::span<const unsigned char> m, const std::string& label) {
    return error_of(svc::wire_parse(resilience::text_view(m), "result", label));
  };
  return f;
}

Format trace_format() {
  Format f;
  f.bytes = workload::encode_trace(std::vector<std::uint64_t>{
      7, 0x9e3779b97f4a7c15ULL, 0, 1ULL << 40});
  f.pinned = f.bytes;
  f.code = ErrorCode::kCorruptInput;
  f.parse = [](std::span<const unsigned char> m, const std::string& label) {
    return error_of(workload::parse_trace(m, label));
  };
  return f;
}

constexpr std::uint64_t kRingSlots = 7;  // odd: low slots-field bits set

Format flight_format() {
  const std::string path = testing_tmp::path("framed.flight");
  {
    obs::FlightRecorder rec(path, std::chrono::steady_clock::now(),
                            64 + kRingSlots * 64);
    // Five records in seven slots: two slots stay never-written.
    for (std::uint64_t i = 0; i < 5; ++i)
      rec.append(static_cast<obs::FlightKind>(i % 4),
                 static_cast<std::uint8_t>(i + 1), 11 * i, 22 * i, 33 * i,
                 44 * i + 1);
  }
  Format f;
  f.bytes = resilience::read_file(path).value();
  // The writer's pid and each record's timestamp and CRC vary per run.
  f.pinned = f.bytes;
  std::fill_n(f.pinned.begin() + 24, 8, 0);
  for (std::size_t slot = 64; slot < f.pinned.size(); slot += 64) {
    std::fill_n(f.pinned.begin() + static_cast<std::ptrdiff_t>(slot), 4, 0);
    std::fill_n(f.pinned.begin() + static_cast<std::ptrdiff_t>(slot) + 16, 8,
                0);
  }
  // An accepted mutant must keep the geometry and hold only records
  // that were written, with identical fields; a violation surfaces as
  // Error{kInternal}, which no rejection may carry.
  const obs::FlightTail written = obs::flight_parse(f.bytes, "pristine").value();
  f.code = ErrorCode::kCorruptInput;
  f.may_accept = true;
  f.parse = [written](std::span<const unsigned char> m,
                      const std::string& label) -> std::optional<Error> {
    const Expected<obs::FlightTail> r = obs::flight_parse(m, label);
    if (!r.ok()) return r.error();
    const obs::FlightTail& tail = r.value();
    if (tail.slots != written.slots)
      return Error(ErrorCode::kInternal,
                   label + ": decoded " + std::to_string(tail.slots) +
                       " slots, wrote " + std::to_string(written.slots));
    for (const obs::FlightRecord& got : tail.records) {
      bool found = false;
      for (const obs::FlightRecord& w : written.records)
        found = found || (got.seq == w.seq && got.kind == w.kind &&
                          got.sub == w.sub && got.t_us == w.t_us &&
                          got.a == w.a && got.b == w.b && got.c == w.c &&
                          got.d == w.d);
      if (!found)
        return Error(ErrorCode::kInternal,
                     label + ": decoded a record never written (seq " +
                         std::to_string(got.seq) + ")");
    }
    return std::nullopt;
  };
  return f;
}

// Every truncation and every single-bit flip of the format's valid
// encoding, after checking that the encoding itself parses: a fixture
// its parse refused would make every mutant "rejected" vacuously.
void run_harness(const Format& f) {
  const std::optional<Error> err = f.parse(f.bytes, "pristine");
  ASSERT_FALSE(err.has_value()) << err->what();
  for (std::size_t len = 0; len < f.bytes.size(); ++len)
    ASSERT_TRUE(verdict(f, std::span(f.bytes.data(), len),
                        "trunc@" + std::to_string(len)))
        << "truncated to " << len << " bytes";
  Bytes mutant = f.bytes;
  for (std::size_t byte = 0; byte < mutant.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[byte] ^= static_cast<unsigned char>(1U << bit);
      const std::string label =
          "flip@" + std::to_string(byte) + "." + std::to_string(bit);
      ASSERT_TRUE(verdict(f, mutant, label)) << label;
      mutant[byte] ^= static_cast<unsigned char>(1U << bit);
    }
  }
}

TEST(FramedCorruption, Snapshot) { run_harness(snapshot_format()); }
TEST(FramedCorruption, Spill) { run_harness(spill_format()); }
TEST(FramedCorruption, Wire) { run_harness(wire_format()); }
TEST(FramedCorruption, Flight) { run_harness(flight_format()); }
TEST(FramedCorruption, Trace) { run_harness(trace_format()); }

// Length and CRC-32 of each fixture's encoding, taken from the encoders
// before they moved onto resilience/framed_file: any change to the bytes
// a format writes fails here.
void expect_golden(const Format& f, std::size_t len, std::uint32_t crc) {
  EXPECT_EQ(f.pinned.size(), len);
  EXPECT_EQ(resilience::crc32(f.pinned), crc);
}

TEST(FramedGolden, Snapshot) {
  expect_golden(snapshot_format(), 832, 0xbba0fd9cU);
}
TEST(FramedGolden, Spill) { expect_golden(spill_format(), 76, 0x8f9a3322U); }
TEST(FramedGolden, Wire) { expect_golden(wire_format(), 40, 0x1c6162f0U); }
TEST(FramedGolden, Flight) {
  expect_golden(flight_format(), 512, 0x8e0fb174U);
}
// The dxbsptr2 trace format was born on framed_file, so its constants
// come from an independent encoder instead: the same layout built with
// Python's struct and zlib.crc32 gives these 52 bytes and this CRC.
TEST(FramedGolden, Trace) { expect_golden(trace_format(), 52, 0x868153e3U); }

// A 4 KiB spill payload: long enough that crc32's word loop and the
// codec's payload copy carry most of the bytes (the Spill fixture above
// is 76). Length and CRC were pinned from the element-at-a-time encoder
// and its byte-at-a-time CRC; zlib's crc32 gives the same value.
TEST(FramedGolden, SpillMultiKiB) {
  std::vector<std::uint64_t> data(512);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = (0x9e3779b97f4a7c15ULL * (i + 1)) ^ (std::uint64_t{i} << 40);
  const Bytes bytes = stream::SpillStore::encode(7, 3, 5, data);
  EXPECT_EQ(bytes.size(), 4140u);
  EXPECT_EQ(resilience::crc32(bytes), 0xfbe68cfaU);
  const auto back = stream::SpillStore::parse(bytes, "golden");
  ASSERT_TRUE(back.ok()) << back.error().what();
  EXPECT_EQ(back.value().data, data);
}

// crc32 against the standard check value and against a byte-at-a-time
// reference, so the golden constants above never rest on crc32 alone.
std::uint32_t crc32_bytewise(std::span<const unsigned char> data,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (const unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(FramedCrc, KnownAnswer) {
  EXPECT_EQ(resilience::crc32(resilience::byte_span("123456789")),
            0xCBF43926U);
  EXPECT_EQ(resilience::crc32({}), 0u);
}

// Every length 0..300 at every start offset 0..7, so each alignment of
// the word loop and each tail length is covered, under three seeds.
TEST(FramedCrc, MatchesBytewiseReference) {
  Bytes buf(8 + 300);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(i * 131 + (i >> 3) * 7 + 1);
  for (const std::uint32_t seed : {0U, 1U, 0xFFFFFFFFU})
    for (std::size_t off = 0; off < 8; ++off)
      for (std::size_t len = 0; len <= 300; ++len) {
        const std::span<const unsigned char> s(buf.data() + off, len);
        ASSERT_EQ(resilience::crc32(s, seed), crc32_bytewise(s, seed))
            << "seed " << seed << " offset " << off << " length " << len;
      }
}

TEST(FramedCrc, ChainsAcrossSplits) {
  Bytes buf(37 * 27);  // the cuts below land on both ends
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>((i * 2654435761U) >> 13);
  const std::uint32_t whole = resilience::crc32(buf);
  for (std::size_t cut = 0; cut <= buf.size(); cut += 37) {
    const std::span<const unsigned char> all(buf);
    EXPECT_EQ(resilience::crc32(all.subspan(cut),
                                resilience::crc32(all.first(cut))),
              whole)
        << "split at " << cut;
  }
}

// The golden flight case masks each record's CRC (it covers a
// timestamp); pin what it covers instead: the 60 bytes after it.
TEST(FramedFile, FlightRecordCrcCoversTheBytesAfterIt) {
  const Bytes ring = flight_format().bytes;
  for (std::size_t slot = 64; slot < ring.size(); slot += 64) {
    const std::uint32_t stored = resilience::load_le<std::uint32_t>(&ring[slot]);
    if (stored == 0) continue;  // never written
    EXPECT_EQ(stored, resilience::crc32(std::span(&ring[slot + 4], 60)))
        << "slot at byte " << slot;
  }
}

// A full default ring has slots = 1023: flipping any low bit of the
// slots field shrinks it, and a reader that trusted it would silently
// drop the records past the new end. The file size pins the geometry.
TEST(FramedFile, FlightRejectsEverySlotCountFlip) {
  const std::string path = testing_tmp::path("full.flight");
  std::uint64_t slots = 0;
  {
    obs::FlightRecorder rec(path, std::chrono::steady_clock::now());
    slots = rec.slots();
    for (std::uint64_t i = 0; i < slots; ++i)
      rec.append(obs::FlightKind::kNote, 0, i);
  }
  ASSERT_EQ(slots, 1023u);
  Bytes ring = resilience::read_file(path).value();
  ASSERT_EQ(obs::flight_parse(ring, "full").value().valid, slots);
  constexpr std::size_t kSlotsField = 16;
  for (std::size_t bit = 0; bit < 64; ++bit) {
    ring[kSlotsField + bit / 8] ^= static_cast<unsigned char>(1U << (bit % 8));
    const auto r = obs::flight_parse(ring, "slots bit " + std::to_string(bit));
    ASSERT_FALSE(r.ok()) << "slots bit " << bit << " flipped, parsed OK";
    EXPECT_EQ(r.error().code(), ErrorCode::kCorruptInput);
    ring[kSlotsField + bit / 8] ^= static_cast<unsigned char>(1U << (bit % 8));
  }
}

// The two publish steps: the tmp holds the complete bytes (written
// through a 3-byte per-syscall cap) before the rename, the rename leaves
// no tmp, and each failure is reported, never thrown or ignored.
TEST(FramedFile, PublishStepsAndFailures) {
  const std::string path = testing_tmp::path("published.bin");
  const Bytes bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  ASSERT_EQ(resilience::write_tmp(path, bytes, resilience::Durability::kFsync,
                                  3),
            "");
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(resilience::read_file(path + ".tmp").value(), bytes);
  ASSERT_EQ(resilience::rename_tmp(path), "");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(resilience::read_file(path).value(), bytes);

  EXPECT_NE(resilience::rename_tmp(path), "") << "no tmp left to rename";
  const std::string nowhere = testing_tmp::path("missing-dir/x.bin");
  EXPECT_NE(resilience::write_tmp(nowhere, bytes,
                                  resilience::Durability::kRenameOnly),
            "");
  try {
    resilience::publish(nowhere, bytes, resilience::Durability::kRenameOnly);
    ADD_FAILURE() << "publish into a missing directory must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  const auto missing = resilience::read_file(nowhere);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kIo);
}

}  // namespace
