#include "obs/flight.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>

#include "obs/selector.hpp"
#include "obs/trace.hpp"
#include "resilience/snapshot.hpp"

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

void put_u32(unsigned char* p, std::uint32_t v) noexcept {
  std::memcpy(p, &v, sizeof v);
}
void put_u64(unsigned char* p, std::uint64_t v) noexcept {
  std::memcpy(p, &v, sizeof v);
}
std::uint32_t get_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

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
  put_u32(map_ + 8, kFlightVersion);
  put_u32(map_ + 12, static_cast<std::uint32_t>(kFlightRecordBytes));
  put_u64(map_ + 16, slots_);
  put_u64(map_ + 24, static_cast<std::uint64_t>(::getpid()));
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
  put_u64(rec + 8, seq_);
  put_u64(rec + 16, t_us);
  put_u64(rec + 24, a);
  put_u64(rec + 32, b);
  put_u64(rec + 40, c);
  put_u64(rec + 48, d);
  const std::uint32_t crc = resilience::crc32(std::span<const unsigned char>(
      rec + kBodyOffset, kFlightRecordBytes - kBodyOffset));
  put_u32(rec + kCrcOffset, crc);

  unsigned char* slot =
      map_ + kFlightHeaderBytes + (seq_ % slots_) * kFlightRecordBytes;
  // Invalidate the slot's CRC first: if death lands mid-copy, the
  // reader sees a torn slot, never a chimera of two records.
  put_u32(slot + kCrcOffset, ~crc);
  std::memcpy(slot + kBodyOffset, rec + kBodyOffset,
              kFlightRecordBytes - kBodyOffset);
  put_u32(slot + kCrcOffset, crc);
  ++seq_;
}

Expected<FlightTail> flight_read(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    return Error(ErrorCode::kIo, path + ": cannot open flight ring");
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string bytes = std::move(buf).str();
  if (bytes.size() < kFlightHeaderBytes)
    return Error(ErrorCode::kCorruptInput,
                 path + ": flight ring shorter than its header");
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (std::memcmp(p, kFlightMagic, sizeof kFlightMagic) != 0)
    return Error(ErrorCode::kCorruptInput, path + ": bad flight magic");
  if (get_u32(p + 8) != kFlightVersion)
    return Error(ErrorCode::kCorruptInput,
                 path + ": unsupported flight version " +
                     std::to_string(get_u32(p + 8)));
  if (get_u32(p + 12) != kFlightRecordBytes)
    return Error(ErrorCode::kCorruptInput,
                 path + ": unexpected record size " +
                     std::to_string(get_u32(p + 12)));

  FlightTail tail;
  tail.slots = get_u64(p + 16);
  tail.pid = get_u64(p + 24);
  const std::uint64_t present = std::min<std::uint64_t>(
      tail.slots, (bytes.size() - kFlightHeaderBytes) / kFlightRecordBytes);
  if (tail.slots == 0 || present < tail.slots)
    return Error(ErrorCode::kCorruptInput,
                 path + ": header claims " + std::to_string(tail.slots) +
                     " slots but the file holds " + std::to_string(present));

  for (std::uint64_t i = 0; i < tail.slots; ++i) {
    const unsigned char* slot =
        p + kFlightHeaderBytes + i * kFlightRecordBytes;
    bool all_zero = true;
    for (std::size_t j = 0; j < kFlightRecordBytes; ++j)
      if (slot[j] != 0) {
        all_zero = false;
        break;
      }
    if (all_zero) continue;  // never written
    const std::uint32_t crc = resilience::crc32(std::span<const unsigned char>(
        slot + kBodyOffset, kFlightRecordBytes - kBodyOffset));
    if (get_u32(slot + kCrcOffset) != crc) {
      ++tail.torn;
      continue;
    }
    FlightRecord r;
    const unsigned char kind = slot[kBodyOffset];
    if (kind >= kFlightKinds) {
      ++tail.torn;
      continue;
    }
    r.kind = static_cast<FlightKind>(kind);
    r.sub = slot[kBodyOffset + 1];
    r.seq = get_u64(slot + 8);
    r.t_us = get_u64(slot + 16);
    r.a = get_u64(slot + 24);
    r.b = get_u64(slot + 32);
    r.c = get_u64(slot + 40);
    r.d = get_u64(slot + 48);
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

}  // namespace dxbsp::obs
