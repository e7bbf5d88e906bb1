#pragma once
// Configuration of the per-processor cache/local-memory tier that sits
// in front of the bank array (docs/cache.md).
//
// The (d,x)-BSP model treats memory as a flat array of delay-d banks —
// exactly the Cray-era machines the paper measured. This tier adds the
// two-level hierarchy those machines lacked: each processor owns a
// small, fast local store of `capacity` lines; a request that hits
// completes locally at `hit_latency` cycles and never enters the
// network/bank pipeline, while misses (and, under write-back, dirty
// evictions) generate the bank traffic the contention machinery already
// models. Replacement is LRU with automatic fills.
//
// This header is deliberately free of sim/ dependencies: cache/ is a
// layer *under* the machine, included by MachineConfig.

#include <cstdint>

namespace dxbsp::cache {

/// What a store does to the memory system. kThrough forwards every
/// write to the home bank (hits still complete locally, but the bank
/// sees the traffic); kBack dirties the cached line and writes it to
/// its bank only on eviction.
enum class WritePolicy : std::uint8_t { kThrough, kBack };

/// Per-processor cache tier parameters (capacity 0 disables the tier
/// entirely: the machine is then bit-identical to the flat model).
struct CacheConfig {
  std::uint64_t capacity = 0;    ///< lines per processor (power of two)
  std::uint64_t line_words = 8;  ///< words per line
  /// Ways per set: 0 = fully associative (one set of `capacity` ways),
  /// 1 = direct-mapped. Must be a power of two dividing `capacity`.
  std::uint64_t assoc = 0;
  std::uint64_t hit_latency = 2;  ///< cycles to complete a hit locally
  WritePolicy write = WritePolicy::kThrough;

  [[nodiscard]] bool enabled() const noexcept { return capacity != 0; }
  [[nodiscard]] std::uint64_t ways() const noexcept {
    return assoc == 0 ? capacity : assoc;
  }
  [[nodiscard]] std::uint64_t sets() const noexcept {
    return capacity / ways();
  }
  [[nodiscard]] std::uint64_t line_of(std::uint64_t addr) const noexcept {
    return addr / line_words;
  }

  /// Throws Error{kConfig} with flag-named messages (the `cache-*` keys
  /// of MachineConfig::parse) on any out-of-range parameter.
  void validate() const;

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

}  // namespace dxbsp::cache
