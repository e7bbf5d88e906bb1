#pragma once
// FlatMap64: open-addressing uint64 → uint64 hash map for simulator hot
// paths (BankArray's combining table; docs/performance.md).
//
// std::unordered_map pays a node allocation per insert and a pointer
// chase per probe — per-event costs in the bulk-op loop. This map keeps
// keys and values in two flat power-of-two arrays, probes linearly from
// a Fibonacci-hashed start index, and supports exactly the operations
// the hot path needs: find, insert_or_assign, clear, reserve. There is
// no erase (the combining table is pruned by clearing between bulk ops),
// hence no tombstones. Load factor is capped at 1/2.
//
// clear() and reserve() keep capacity, so a table sized before an
// operation (BankArray::reset seeds its combinable addresses) never
// rehashes mid-operation.
// ~0ULL is a valid key (held out of band, not as the empty sentinel's
// victim).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dxbsp::util {

class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const noexcept {
    return size_ + (has_empty_key_ ? 1 : 0);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }

  /// Grows so `n` insertions proceed without rehashing. Never shrinks.
  void reserve(std::size_t n) {
    if (n * 2 > keys_.size()) rehash(cap_for(n));
  }

  /// Removes every entry, keeping capacity.
  void clear() noexcept {
    if (size_ != 0) std::fill(keys_.begin(), keys_.end(), kEmpty);
    size_ = 0;
    has_empty_key_ = false;
  }

  /// Pointer to the value of `key`, or nullptr when absent. Stable only
  /// until the next insert (which may rehash).
  [[nodiscard]] const std::uint64_t* find(std::uint64_t key) const noexcept {
    if (key == kEmpty) return has_empty_key_ ? &empty_key_val_ : nullptr;
    if (keys_.empty()) return nullptr;
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint64_t k = keys_[i];
      if (k == key) return &vals_[i];
      if (k == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  /// Mutable form: the value may be updated in place through it.
  [[nodiscard]] std::uint64_t* find(std::uint64_t key) noexcept {
    return const_cast<std::uint64_t*>(std::as_const(*this).find(key));
  }

  /// Increments the value of `key` (inserting it at 0 first) and returns
  /// the new value: the one-probe form of find + insert_or_assign for
  /// counting loops (location-contention accounting).
  std::uint64_t bump(std::uint64_t key) {
    if (key == kEmpty) {
      if (!has_empty_key_) {
        has_empty_key_ = true;
        empty_key_val_ = 0;
      }
      return ++empty_key_val_;
    }
    if ((size_ + 1) * 2 > keys_.size()) rehash(cap_for(size_ + 1));
    std::size_t i = probe_start(key);
    while (true) {
      std::uint64_t& k = keys_[i];
      if (k == kEmpty) {
        k = key;
        vals_[i] = 1;
        ++size_;
        return 1;
      }
      if (k == key) return ++vals_[i];
      i = (i + 1) & mask_;
    }
  }

  void insert_or_assign(std::uint64_t key, std::uint64_t value) {
    if (key == kEmpty) {
      has_empty_key_ = true;
      empty_key_val_ = value;
      return;
    }
    if ((size_ + 1) * 2 > keys_.size()) rehash(cap_for(size_ + 1));
    std::size_t i = probe_start(key);
    while (true) {
      std::uint64_t& k = keys_[i];
      if (k == kEmpty) {
        k = key;
        vals_[i] = value;
        ++size_;
        return;
      }
      if (k == key) {
        vals_[i] = value;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;

  [[nodiscard]] static std::size_t cap_for(std::size_t n) noexcept {
    return std::bit_ceil(std::max<std::size_t>(2 * n, 16));
  }

  /// Fibonacci hashing on the top bits: multiplicative mixing spreads
  /// sequential addresses (the common workload) across the table.
  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t new_cap) {
    const std::vector<std::uint64_t> old_keys = std::move(keys_);
    const std::vector<std::uint64_t> old_vals = std::move(vals_);
    keys_.assign(new_cap, kEmpty);
    vals_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(new_cap));
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i)
      if (old_keys[i] != kEmpty) insert_or_assign(old_keys[i], old_vals[i]);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> vals_;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
  std::uint64_t empty_key_val_ = 0;
};

}  // namespace dxbsp::util
