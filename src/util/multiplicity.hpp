#pragma once
// MultiplicityCounter: exact multiplicities of a key stream — the
// largest one (the QRQW location contention k charged per bulk op) and
// the number of distinct keys (docs/performance.md). It is the one
// location-counting primitive of the code base: mem::analyze_locations
// (and through it the predictor and the algorithms) and the simulator's
// per-op attribution both count through it.
//
// One hash table over the whole stream misses cache on nearly every key
// once the table outgrows L2. This counter partitions first:
//   1. radix partition: each key's Fibonacci hash h = key·kMultiplier
//      goes to partition h >> (64 - bits) of a scratch buffer of n
//      words (a counting pass, then a scatter pass). kMultiplier is
//      odd, so the hash is a bijection on 64-bit words: equal hashes
//      are equal keys, and the buffer is counted in place of the keys;
//   2. each partition is counted in one small table of 16-byte
//      {hash, epoch, count} slots that stays in cache. A partition
//      invalidates the table by bumping a 32-bit epoch instead of
//      clearing it (the table is only wiped when the epoch wraps).
// The partition count follows from n alone: the smallest power of two
// that leaves at most kPartitionKeys keys per partition on average. The
// table has kSlotsPerKey·kPartitionKeys slots and doubles, in place,
// whenever a partition's distinct keys would fill more than
// 1/kSlotsPerKey of it, so the load factor never exceeds 1/kSlotsPerKey
// (probe chains, and the branch mispredictions they cost, stay short).
// Buffers are kept across calls and never shrink, so a counter reused
// across a sweep stops allocating.
//
// Counts and partition offsets are 32-bit: a span of more than kMaxKeys
// keys raises ErrorCode::kConfig.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::util {

/// Result of one MultiplicityCounter::count call.
struct Multiplicity {
  std::uint64_t max = 0;       ///< largest multiplicity (0 for no keys)
  std::uint64_t distinct = 0;  ///< number of distinct keys
};

class MultiplicityCounter {
 public:
  /// Fibonacci-hash multiplier (2^64 / golden ratio, odd).
  static constexpr std::uint64_t kMultiplier = 0x9E3779B97F4A7C15ULL;
  /// Average keys per partition, and table slots per key (the inverse of
  /// the maximum load factor); both chosen from a measured sweep
  /// (docs/performance.md). Spans up to kPartitionKeys form one
  /// partition; the table is 16 B · kSlotsPerKey · kPartitionKeys =
  /// 512 KiB, resident in a 1 MiB-or-larger L2.
  static constexpr std::size_t kPartitionKeys = std::size_t{1} << 13;
  static constexpr std::size_t kSlotsPerKey = 4;
  /// Largest span count() accepts (32-bit counts and offsets).
  static constexpr std::size_t kMaxKeys = 0xFFFFFFFEU;

  /// Exact {max multiplicity, distinct} over `keys` ({0, 0} for an empty
  /// span). Each call is an independent count. Throws Error(kConfig) on
  /// a span of more than kMaxKeys keys.
  [[nodiscard]] Multiplicity count(std::span<const std::uint64_t> keys) {
    const std::size_t n = keys.size();
    if (n == 0) return {};
    reserve(n);
    const unsigned bits = partition_bits(n);
    std::uint64_t* const buf = scratch_.data();
    if (bits == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = keys[i] * kMultiplier;
      offsets_.assign({0, static_cast<std::uint32_t>(n)});
    } else {
      partition(keys, bits);
    }

    Multiplicity m{1, 0};
    const std::size_t parts = offsets_.size() - 1;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::uint32_t cur = next_epoch();
      std::size_t part_distinct = 0;
      for (std::size_t i = offsets_[p]; i < offsets_[p + 1]; ++i) {
        const std::uint64_t h = buf[i];
        std::size_t j = slot_of(h, bits);
        while (true) {
          Slot& s = slots_[j];
          if (s.epoch != cur) {
            s = Slot{h, cur, 1};
            if (kSlotsPerKey * ++part_distinct > slots_.size())
              grow(cur, bits);
            break;
          }
          if (s.hash == h) {
            m.max = std::max<std::uint64_t>(m.max, ++s.count);
            break;
          }
          j = (j + 1) & mask_;
        }
      }
      m.distinct += part_distinct;
    }
    return m;
  }

  /// Max multiplicity over `keys` (0 for an empty span).
  [[nodiscard]] std::uint64_t max_multiplicity(
      std::span<const std::uint64_t> keys) {
    return count(keys).max;
  }

  /// Sizes the buffers so a span of `n` keys counts without allocating
  /// (unless one partition outgrows the table). Never shrinks. Throws
  /// Error(kConfig) when n > kMaxKeys.
  void reserve(std::size_t n) {
    if (n > kMaxKeys)
      raise(ErrorCode::kConfig,
            "MultiplicityCounter: " + std::to_string(n) +
                " keys exceed the 32-bit count limit of " +
                std::to_string(kMaxKeys));
    if (scratch_.size() < n) scratch_.resize(n);
    const std::size_t want =
        std::bit_ceil(kSlotsPerKey * std::min(n, kPartitionKeys));
    if (slots_.size() < want) {
      slots_.assign(want, Slot{});
      set_mask(want);
      epoch_ = 0;
    }
  }

  /// Keys a call can take without growing the scratch buffer.
  [[nodiscard]] std::size_t capacity() const noexcept { return scratch_.size(); }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t epoch = 0;  // tag: valid only when == current epoch
    std::uint32_t count = 0;
  };
  static_assert(sizeof(Slot) == 16);

  /// log2 of the partition count: 0 up to kPartitionKeys keys, then one
  /// more bit each time n doubles.
  [[nodiscard]] static unsigned partition_bits(std::size_t n) noexcept {
    return static_cast<unsigned>(std::bit_width((n - 1) / kPartitionKeys));
  }

  /// Table slot of hash `h` inside its partition: the bits just below the
  /// `bits` partition bits, which every key of the partition shares.
  [[nodiscard]] std::size_t slot_of(std::uint64_t h,
                                    unsigned bits) const noexcept {
    return static_cast<std::size_t>((h << bits) >> shift_);
  }

  /// Scatters the keys' hashes into scratch_ grouped by their top `bits`
  /// bits; offsets_[p] .. offsets_[p + 1] delimits partition p.
  void partition(std::span<const std::uint64_t> keys, unsigned bits) {
    const std::size_t parts = std::size_t{1} << bits;
    const unsigned top = 64U - bits;
    offsets_.assign(parts + 1, 0);
    for (const std::uint64_t k : keys) ++offsets_[((k * kMultiplier) >> top) + 1];
    for (std::size_t p = 1; p <= parts; ++p) offsets_[p] += offsets_[p - 1];
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);
    std::uint64_t* const buf = scratch_.data();
    for (const std::uint64_t k : keys) {
      const std::uint64_t h = k * kMultiplier;
      buf[cursor_[h >> top]++] = h;
    }
  }

  [[nodiscard]] std::uint32_t next_epoch() {
    if (++epoch_ == 0) {
      // Epoch wrapped: every stale tag is now "current". Wipe once.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
    return epoch_;
  }

  /// Doubles the table, keeping the current partition's tallies (tags
  /// == cur); every other slot is stale and dropped.
  void grow(std::uint32_t cur, unsigned bits) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
    set_mask(slots_.size());
    for (const Slot& s : old) {
      if (s.epoch != cur) continue;
      std::size_t j = slot_of(s.hash, bits);
      while (slots_[j].epoch == cur) j = (j + 1) & mask_;
      slots_[j] = s;
    }
  }

  void set_mask(std::size_t cap) noexcept {
    mask_ = cap - 1;
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(cap));
  }

  std::vector<std::uint64_t> scratch_;  // partitioned hashes, n words
  std::vector<std::uint32_t> offsets_;  // partition bounds
  std::vector<std::uint32_t> cursor_;   // scatter write positions
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::uint32_t epoch_ = 0;
};

}  // namespace dxbsp::util
