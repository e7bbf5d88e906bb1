#include "obs/flight.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <sstream>

#include "obs/json.hpp"
#include "obs/selector.hpp"
#include "obs/trace.hpp"
#include "resilience/framed_file.hpp"

namespace dxbsp::obs {

namespace {

constexpr char kFlightMagic[8] = {'D', 'X', 'F', 'D', 'R', '1', 0, 0};

// On-disk geometry, assembled with memcpy (no struct punning): the
// format is defined by offsets, not by a compiler's layout choices.
//   header: magic[8] | u32 version | u32 record_bytes | u64 slots |
//           u64 pid | zero padding to 64
//   record: u32 crc | u8 kind | u8 sub | u16 zero | u64 seq | u64 t_us |
//           u64 a | u64 b | u64 c | u64 d | zero padding to 64
constexpr std::size_t kCrcOffset = 0;
constexpr std::size_t kBodyOffset = 4;  // crc covers [kBodyOffset, 64)

using resilience::load_le;
using resilience::store_le;

}  // namespace

const char* flight_kind_name(FlightKind k) noexcept {
  switch (k) {
    case FlightKind::kPhase: return "phase";
    case FlightKind::kTrace: return "trace";
    case FlightKind::kSelector: return "selector";
    case FlightKind::kNote: return "note";
  }
  return "?";
}

const char* flight_phase_name(FlightPhase p) noexcept {
  switch (p) {
    case FlightPhase::kLease: return "lease";
    case FlightPhase::kPoint: return "point";
    case FlightPhase::kResult: return "result";
    case FlightPhase::kChaos: return "chaos";
  }
  return "?";
}

FlightRecorder::FlightRecorder(const std::string& path,
                               std::chrono::steady_clock::time_point epoch,
                               std::size_t bytes)
    : path_(path), epoch_(epoch) {
  if (bytes < kFlightHeaderBytes + kFlightRecordBytes)
    raise(ErrorCode::kConfig,
          path + ": flight ring needs at least " +
              std::to_string(kFlightHeaderBytes + kFlightRecordBytes) +
              " bytes");
  slots_ = (bytes - kFlightHeaderBytes) / kFlightRecordBytes;
  map_bytes_ = kFlightHeaderBytes + slots_ * kFlightRecordBytes;

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    raise(ErrorCode::kIo,
          path + ": cannot create flight ring: " + std::strerror(errno));
  if (::ftruncate(fd, static_cast<off_t>(map_bytes_)) != 0) {
    const int err = errno;
    ::close(fd);
    raise(ErrorCode::kIo,
          path + ": cannot size flight ring: " + std::strerror(err));
  }
  void* m = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (m == MAP_FAILED)
    raise(ErrorCode::kIo,
          path + ": cannot map flight ring: " + std::strerror(errno));
  map_ = static_cast<unsigned char*>(m);

  std::memset(map_, 0, map_bytes_);
  std::memcpy(map_, kFlightMagic, sizeof kFlightMagic);
  store_le(map_ + 8, kFlightVersion);
  store_le(map_ + 12, static_cast<std::uint32_t>(kFlightRecordBytes));
  store_le(map_ + 16, slots_);
  store_le(map_ + 24, static_cast<std::uint64_t>(::getpid()));
}

FlightRecorder::~FlightRecorder() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void FlightRecorder::append(FlightKind kind, std::uint8_t sub,
                            std::uint64_t a, std::uint64_t b, std::uint64_t c,
                            std::uint64_t d) noexcept {
  if (map_ == nullptr || slots_ == 0) return;
  const std::uint64_t t_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());

  unsigned char rec[kFlightRecordBytes] = {};
  rec[kBodyOffset] = static_cast<unsigned char>(kind);
  rec[kBodyOffset + 1] = sub;
  store_le(rec + 8, seq_);
  store_le(rec + 16, t_us);
  store_le(rec + 24, a);
  store_le(rec + 32, b);
  store_le(rec + 40, c);
  store_le(rec + 48, d);
  resilience::seal_crc(rec, kCrcOffset);
  const auto crc = load_le<std::uint32_t>(rec + kCrcOffset);

  unsigned char* slot =
      map_ + kFlightHeaderBytes + (seq_ % slots_) * kFlightRecordBytes;
  // Invalidate the slot's CRC first: if death lands mid-copy, the
  // reader sees a torn slot, never a chimera of two records.
  store_le(slot + kCrcOffset, ~crc);
  std::memcpy(slot + kBodyOffset, rec + kBodyOffset,
              kFlightRecordBytes - kBodyOffset);
  store_le(slot + kCrcOffset, crc);
  ++seq_;
}

Expected<FlightTail> flight_read(const std::string& path) {
  Expected<std::vector<unsigned char>> bytes = resilience::read_file(path);
  if (!bytes) return bytes.error();
  return flight_parse(bytes.value(), path);
}

Expected<FlightTail> flight_parse(std::span<const unsigned char> bytes,
                                  const std::string& origin) {
  auto corrupt = [&origin](const std::string& why) {
    return Error(ErrorCode::kCorruptInput, origin + ": " + why);
  };
  if (bytes.size() < kFlightHeaderBytes)
    return corrupt("flight ring shorter than its header");
  const unsigned char* p = bytes.data();
  if (std::memcmp(p, kFlightMagic, sizeof kFlightMagic) != 0)
    return corrupt("bad flight magic");
  if (load_le<std::uint32_t>(p + 8) != kFlightVersion)
    return corrupt("unsupported flight version " +
                   std::to_string(load_le<std::uint32_t>(p + 8)));
  if (load_le<std::uint32_t>(p + 12) != kFlightRecordBytes)
    return corrupt("unexpected record size " +
                   std::to_string(load_le<std::uint32_t>(p + 12)));

  FlightTail tail;
  tail.slots = load_le<std::uint64_t>(p + 16);
  tail.pid = load_le<std::uint64_t>(p + 24);
  // FlightRecorder sizes the file to exactly header + slots records, so
  // any other size is damage: a slots field that shrank would otherwise
  // silently drop the records past it.
  const std::size_t ring_bytes = bytes.size() - kFlightHeaderBytes;
  if (tail.slots == 0 || ring_bytes % kFlightRecordBytes != 0 ||
      tail.slots != ring_bytes / kFlightRecordBytes)
    return corrupt("header claims " + std::to_string(tail.slots) +
                   " slots but the file holds " +
                   std::to_string(bytes.size()) + " bytes");

  for (std::uint64_t i = 0; i < tail.slots; ++i) {
    const unsigned char* slot =
        p + kFlightHeaderBytes + i * kFlightRecordBytes;
    if (std::all_of(slot, slot + kFlightRecordBytes,
                    [](unsigned char b) { return b == 0; }))
      continue;  // never written
    const unsigned char kind = slot[kBodyOffset];
    if (kind >= kFlightKinds ||
        !resilience::crc_mismatch({slot, kFlightRecordBytes}, kCrcOffset)
             .empty()) {
      ++tail.torn;
      continue;
    }
    FlightRecord r;
    r.kind = static_cast<FlightKind>(kind);
    r.sub = slot[kBodyOffset + 1];
    r.seq = load_le<std::uint64_t>(slot + 8);
    r.t_us = load_le<std::uint64_t>(slot + 16);
    r.a = load_le<std::uint64_t>(slot + 24);
    r.b = load_le<std::uint64_t>(slot + 32);
    r.c = load_le<std::uint64_t>(slot + 40);
    r.d = load_le<std::uint64_t>(slot + 48);
    tail.records.push_back(r);
    ++tail.valid;
  }
  std::sort(tail.records.begin(), tail.records.end(),
            [](const FlightRecord& x, const FlightRecord& y) {
              return x.seq < y.seq;
            });
  return tail;
}

std::string flight_record_name(const FlightRecord& r) {
  switch (r.kind) {
    case FlightKind::kPhase:
      return r.sub < kFlightPhases
                 ? flight_phase_name(static_cast<FlightPhase>(r.sub))
                 : "?";
    case FlightKind::kTrace:
      return r.sub < kTraceKinds
                 ? trace_kind_name(static_cast<TraceKind>(r.sub))
                 : "?";
    case FlightKind::kSelector:
      return r.sub < kEngineChoices
                 ? engine_choice_name(static_cast<EngineChoice>(r.sub))
                 : "?";
    case FlightKind::kNote: return "note";
  }
  return "?";
}

std::string flight_describe(const FlightRecord& r) {
  std::ostringstream os;
  os << flight_kind_name(r.kind) << ' ' << flight_record_name(r);
  switch (r.kind) {
    case FlightKind::kPhase:
      if (r.sub == static_cast<std::uint8_t>(FlightPhase::kPoint)) {
        os << " covered=" << r.a << " completed=" << r.b << "/" << r.c;
      } else if (r.sub == static_cast<std::uint8_t>(FlightPhase::kChaos)) {
        os << " at_phase=" << r.a << " point=" << r.b;
      } else if (r.sub == static_cast<std::uint8_t>(FlightPhase::kResult)) {
        os << " completed=" << r.a << " resumed=" << r.b << " total=" << r.c;
      } else {
        os << " resume_points=" << r.a << " total=" << r.c;
      }
      os << " attempt=" << r.d;
      break;
    case FlightKind::kTrace:
      os << " ts=" << r.a << " dur=" << r.b << " a=" << r.c << " b=" << r.d;
      break;
    case FlightKind::kSelector:
      os << " step=" << r.a << " n=" << r.b << " measured=" << r.d;
      break;
    case FlightKind::kNote:
      os << " a=" << r.a << " b=" << r.b << " c=" << r.c << " d=" << r.d;
      break;
  }
  return std::move(os).str();
}

void write_json(JsonWriter& w, const PostMortemInfo& pm) {
  w.member("schema_version", kPostMortemSchemaVersion);
  w.member("harvests", static_cast<std::uint64_t>(pm.harvests.size()));
  w.key("deaths").begin_array();
  for (const PostMortemInfo::Harvest& h : pm.harvests) {
    w.begin_object();
    w.member("shard", h.shard);
    w.member("attempt", h.attempt);
    w.member("why", h.why);
    w.member("last_phase", h.last_phase);
    w.member("last_point", h.last_point);
    w.member("records", h.records);
    w.member("torn", h.torn);
    w.key("events").begin_array();
    for (const PostMortemInfo::Event& ev : h.events) {
      w.begin_object();
      w.member("kind", ev.kind);
      w.member("name", ev.name);
      w.member("seq", ev.seq);
      w.member("t_us", ev.t_us);
      w.member("a", ev.a);
      w.member("b", ev.b);
      w.member("c", ev.c);
      w.member("d", ev.d);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

}  // namespace dxbsp::obs
