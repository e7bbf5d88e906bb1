#pragma once
// MultiplicityCounter: exact multiplicities of a key stream — the
// largest one (the QRQW location contention k charged per bulk op) and
// the number of distinct keys (docs/performance.md). It is the one
// location-counting primitive of the code base: mem::analyze_locations
// (and through it the predictor and the algorithms) and the simulator's
// per-op attribution both count through it.
//
// One hash table over the whole stream misses cache on nearly every key
// once the table outgrows L2. This counter partitions first, then counts
// each partition in a table that stays in cache:
//   1. hash: each key's Fibonacci hash h = key·kMultiplier. kMultiplier
//      is odd, so the hash is a bijection on 64-bit words: equal hashes
//      are equal keys, and the partitioned hashes are counted in place
//      of the keys. A partition is a run of hashes sharing their top
//      `bits` bits; one histogram of those bits sizes every partition.
//   2. radix partition in one or two scatter passes. A pass that writes
//      more than 2^kFanBits = 32 streams into a buffer larger than L2
//      costs 2-4x per key what a 32-way pass does (docs/performance.md);
//      into an L2-sized buffer 64 streams are still cheap. So a span of
//      up to 2^18 keys (64 partitions, a 2 MiB buffer) is scattered in
//      one pass, and a longer one in two: pass 1 scatters the hashes
//      into a scratch buffer of n words by their top kFanBits bits; pass
//      2 scatters each (L2-sized) level-1 partition by the next bits
//      into a second, reused buffer. The second buffer holds a level-1
//      partition of up to kOversize times the average (n/16 words). A
//      longer one (a hot spot's, or a crafted key set's) is split into
//      its sub-partitions in place in the scratch buffer instead, by
//      swaps (American flag sort): slower per key than the scatter, but
//      it needs no buffer, and a hot spot's sub-partitions still hold
//      about the average number of distinct keys, so the table keeps
//      its size;
//   3. each partition is counted in one small table of 16-byte
//      {hash, epoch, count} slots. A partition invalidates the table by
//      bumping a 32-bit epoch instead of clearing it (the table is only
//      wiped when the epoch wraps). A hash's slot is a multiplicative
//      remix of the hash bits below the partition bits, not those bits
//      themselves: keys whose hashes share them (a crafted key set)
//      would otherwise all probe one chain.
// A caller may also ask for the repeated keys: every key whose
// multiplicity reaches 2, appended once, at the tally's 1 -> 2 step (the
// key is the hash times kMultiplier's inverse). Only those keys can
// meet another request for the same location, so they are what the
// simulator's combining table holds (sim::BankArray). Uniform traffic
// never takes that step.
// The partition count follows from n alone: one partition up to
// kPartitionKeys keys; beyond that, the smallest power of two that
// leaves at most kPartitionKeys/2 keys per partition on average. The
// table has kSlotsPerKey·kPartitionKeys slots and doubles, in place,
// whenever a partition's distinct keys would fill more than
// 1/kSlotsPerKey of it, so the load factor never exceeds 1/kSlotsPerKey
// (probe chains, and the branch mispredictions they cost, stay short).
// Averaging half the growth threshold keeps a uniform trace's partitions
// (spread ~√mean around the mean) below it, and repeated keys do not
// count against it, so the table only grows on a partition with far
// more distinct keys than average (a crafted key set, as hashes are
// near-uniform otherwise). Buffers are kept across calls and never
// shrink, so a counter reused across a sweep stops allocating — except
// a table such a partition grew, which the call shrinks back to its
// budget before returning.
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
  /// kMultiplier's multiplicative inverse mod 2^64: key = hash · kInverse.
  static constexpr std::uint64_t kInverse = 0xF1DE83E19937733DULL;
  static_assert(kMultiplier * kInverse == 1);
  /// Keys the table is sized for, and table slots per key (the inverse
  /// of the maximum load factor); both chosen from a measured sweep
  /// (docs/performance.md). Spans up to kPartitionKeys form one
  /// partition; longer spans average kPartitionKeys/2 keys per
  /// partition. The table is 16 B · kSlotsPerKey · kPartitionKeys =
  /// 512 KiB, resident in a 1 MiB-or-larger L2.
  static constexpr std::size_t kPartitionKeys = std::size_t{1} << 13;
  static constexpr std::size_t kSlotsPerKey = 4;
  /// log2 of the most partitions a scatter pass writes into a buffer
  /// larger than L2; one more bit when the buffer fits (a span of up to
  /// 2^(kFanBits+1) · kPartitionKeys/2 = 2^18 keys, 2 MiB). Past these
  /// fan-outs a pass costs 2-4x per key (docs/performance.md).
  static constexpr unsigned kFanBits = 5;
  /// Largest span count() accepts (32-bit counts and offsets).
  static constexpr std::size_t kMaxKeys = 0xFFFFFFFEU;

  /// Exact {max multiplicity, distinct} over `keys` ({0, 0} for an empty
  /// span). Each call is an independent count. When `repeated` is given,
  /// it is cleared and receives every key of multiplicity 2 or more, each
  /// once, in no particular order. Throws Error(kConfig) on a span of
  /// more than kMaxKeys keys.
  [[nodiscard]] Multiplicity count(
      std::span<const std::uint64_t> keys,
      std::vector<std::uint64_t>* repeated = nullptr) {
    if (repeated != nullptr) repeated->clear();
    repeated_ = repeated;
    const std::size_t n = keys.size();
    if (n == 0) return {};
    reserve(n);
    const std::size_t entry = slots_.size();
    const Multiplicity m = count_spans(keys);
    // A skewed partition grew the table: give the memory back, so one
    // crafted call does not leave every later call probing (and the
    // process holding) a table many times the cache-sized budget.
    if (slots_.size() > entry) {
      const std::size_t budget = table_budget(n);
      slots_ = std::vector<Slot>(budget);
      set_mask(budget);
      epoch_ = 0;
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
    const unsigned bits = partition_bits(n);
    const unsigned top = level1_bits(bits);
    if (bits > top && second_.size() < second_buffer_words(n, top))
      second_.resize(second_buffer_words(n, top));
    const std::size_t want = table_budget(n);
    if (slots_.size() < want) {
      slots_.assign(want, Slot{});
      set_mask(want);
      epoch_ = 0;
    }
  }

  /// Keys a call can take without growing the scratch buffer.
  [[nodiscard]] std::size_t capacity() const noexcept { return scratch_.size(); }
  /// Slots in the count table: kSlotsPerKey·kPartitionKeys once a call
  /// has counted that many keys (a call whose skewed partition grew the
  /// table shrinks it back to its budget before returning).
  [[nodiscard]] std::size_t table_slots() const noexcept {
    return slots_.size();
  }

 private:
  /// The count() body: partitions `keys` (reserved) and counts each
  /// partition.
  [[nodiscard]] Multiplicity count_spans(std::span<const std::uint64_t> keys) {
    const std::size_t n = keys.size();
    const unsigned bits = partition_bits(n);
    std::uint64_t* const buf = scratch_.data();
    Multiplicity m{1, 0};
    if (bits == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = keys[i] * kMultiplier;
      count_partition(buf, buf + n, 0, m);
      return m;
    }
    const unsigned top = level1_bits(bits);
    const unsigned sub = bits - top;
    partition(keys, bits, top);
    const std::size_t parts = std::size_t{1} << top;
    if (sub == 0) {
      for (std::size_t p = 0; p < parts; ++p)
        count_partition(buf + bounds_[p], buf + bounds_[p + 1], bits, m);
      return m;
    }
    const std::size_t oversize = second_buffer_words(n, top);
    const std::size_t subparts = std::size_t{1} << sub;
    for (std::size_t p = 0; p < parts; ++p) {
      std::uint64_t* const first = buf + bounds_[p];
      std::uint64_t* const last = buf + bounds_[p + 1];
      // The histogram's row for p sizes p's sub-partitions.
      const std::uint32_t* const sizes = hist_.data() + (p << sub);
      std::uint32_t start = 0;
      for (std::size_t s = 0; s < subparts; ++s) {
        cursor_[s] = start;
        start += sizes[s];
      }
      std::uint64_t* out = second_.data();
      if (static_cast<std::size_t>(last - first) > oversize) {
        split_in_place(first, sizes, top, sub);
        out = first;
      } else {
        for (const std::uint64_t* it = first; it != last; ++it) {
          const std::uint64_t h = *it;
          out[cursor_[(h << top) >> (64U - sub)]++] = h;
        }
      }
      start = 0;
      for (std::size_t s = 0; s < subparts; ++s) {
        count_partition(out + start, out + start + sizes[s], bits, m);
        start += sizes[s];
      }
    }
    return m;
  }

  /// Table slots a span of `n` keys is sized for.
  [[nodiscard]] static std::size_t table_budget(std::size_t n) noexcept {
    return std::bit_ceil(kSlotsPerKey * std::min(n, kPartitionKeys));
  }

  /// A level-1 partition longer than kOversize times the average is
  /// split in place instead of scattered into the second buffer.
  static constexpr std::size_t kOversize = 2;

  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t epoch = 0;  // tag: valid only when == current epoch
    std::uint32_t count = 0;
  };
  static_assert(sizeof(Slot) == 16);

  /// log2 of the partition count: 0 up to kPartitionKeys keys, then the
  /// fewest bits that leave at most kPartitionKeys/2 keys per partition
  /// on average (one more bit each time n doubles).
  [[nodiscard]] static unsigned partition_bits(std::size_t n) noexcept {
    if (n <= kPartitionKeys) return 0;
    return static_cast<unsigned>(
        std::bit_width((n - 1) / (kPartitionKeys / 2)));
  }

  /// Bits of pass 1 (the scatter into scratch_) out of a span's `bits`.
  /// Up to kFanBits + 1 bits (2^18 keys, a scratch buffer that fits L2)
  /// one pass takes them all. Beyond, pass 1 takes kFanBits and pass 2,
  /// whose buffer fits L2, the rest up to kFanBits + 1; past
  /// 2·kFanBits + 1 bits (2^23 keys) pass 1 takes the excess, so a
  /// level-1 partition stays L2-sized.
  [[nodiscard]] static unsigned level1_bits(unsigned bits) noexcept {
    if (bits <= kFanBits + 1) return bits;
    return std::max(kFanBits, bits - (kFanBits + 1));
  }

  /// Words of the second buffer: kOversize times the average level-1
  /// partition of a span of `n` keys split by `top` bits.
  [[nodiscard]] static std::size_t second_buffer_words(std::size_t n,
                                                       unsigned top) noexcept {
    return kOversize * ((n >> top) + 1);
  }

  /// Odd multiplier of the slot remix.
  static constexpr std::uint64_t kSlotMix = 0xD1B54A32D192ED03ULL;

  /// Table slot of hash `h` inside its partition: the top bits of the
  /// hash bits below the `bits` partition bits (which every key of the
  /// partition shares) times kSlotMix. A product's top bits depend on
  /// every bit of the multiplicand, so keys that differ only low in
  /// their hashes still spread over the table.
  [[nodiscard]] std::size_t slot_of(std::uint64_t h,
                                    unsigned bits) const noexcept {
    return static_cast<std::size_t>(((h << bits) * kSlotMix) >> shift_);
  }

  /// Histograms the keys' hashes by their top `bits` bits into hist_ and
  /// scatters them into scratch_ grouped by their top `top` bits;
  /// bounds_[p] .. bounds_[p + 1] delimits level-1 partition p.
  void partition(std::span<const std::uint64_t> keys, unsigned bits,
                 unsigned top) {
    const unsigned shift = 64U - bits;
    hist_.assign(std::size_t{1} << bits, 0);
    for (const std::uint64_t k : keys) ++hist_[(k * kMultiplier) >> shift];
    const std::size_t parts = std::size_t{1} << top;
    const std::size_t group = std::size_t{1} << (bits - top);
    bounds_.resize(parts + 1);
    cursor_.resize(std::max(parts, group));
    std::uint32_t start = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      bounds_[p] = start;
      cursor_[p] = start;
      for (std::size_t s = 0; s < group; ++s) start += hist_[p * group + s];
    }
    bounds_[parts] = start;
    const unsigned down = 64U - top;
    std::uint64_t* const buf = scratch_.data();
    for (const std::uint64_t k : keys) {
      const std::uint64_t h = k * kMultiplier;
      buf[cursor_[h >> down]++] = h;
    }
  }

  /// Moves the hashes of the level-1 partition at `a` into its
  /// sub-partitions (by the `sub` hash bits below the top `top`) in
  /// place, swapping each into its sub-partition's next free word
  /// (American flag sort). cursor_[s] starts at sub-partition s's offset;
  /// `sizes` are the sub-partitions' lengths.
  void split_in_place(std::uint64_t* a, const std::uint32_t* sizes,
                      unsigned top, unsigned sub) {
    const auto sub_of = [&](std::uint64_t h) {
      return static_cast<std::size_t>((h << top) >> (64U - sub));
    };
    std::uint32_t end = 0;
    for (std::size_t s = 0; s < (std::size_t{1} << sub); ++s) {
      end += sizes[s];
      while (cursor_[s] < end) {
        std::uint64_t h = a[cursor_[s]];
        for (std::size_t d = sub_of(h); d != s; d = sub_of(h))
          std::swap(h, a[cursor_[d]++]);
        a[cursor_[s]++] = h;
      }
    }
  }

  /// Counts the hashes [first, last), one partition whose keys share
  /// their top `bits` hash bits, folds its largest multiplicity and
  /// distinct count into `m`, and appends each key whose tally reaches 2
  /// to repeated_ when the caller asked for them.
  void count_partition(const std::uint64_t* first, const std::uint64_t* last,
                       unsigned bits, Multiplicity& m) {
    const std::uint32_t cur = next_epoch();
    std::uint64_t max = m.max;
    std::size_t part_distinct = 0;
    for (; first != last; ++first) {
      const std::uint64_t h = *first;
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
          const std::uint32_t c = ++s.count;
          max = std::max<std::uint64_t>(max, c);
          if (c == 2 && repeated_ != nullptr)
            repeated_->push_back(h * kInverse);
          break;
        }
        j = (j + 1) & mask_;
      }
    }
    m.max = max;
    m.distinct += part_distinct;
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

  std::vector<std::uint64_t> scratch_;  // level-1 partitioned hashes, n words
  std::vector<std::uint64_t> second_;   // one level-1 partition, re-scattered
  std::vector<std::uint32_t> hist_;     // partition sizes, by all bits
  std::vector<std::uint32_t> bounds_;   // level-1 partition bounds
  std::vector<std::uint32_t> cursor_;   // scatter write positions
  std::vector<Slot> slots_;
  std::vector<std::uint64_t>* repeated_ = nullptr;  // this call's output
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::uint32_t epoch_ = 0;
};

}  // namespace dxbsp::util
