#pragma once
// The per-processor cache tier: deterministic set-associative tag state
// for p processors, consulted by both event engines at fresh-issue time
// (docs/cache.md).
//
// The tier models a *store-stream* cache, matching the simulator's
// scatter semantics (gather aliases scatter by the paper's symmetry
// argument): under write-back every access dirties its line, so every
// eviction of a valid line is a writeback; under write-through lines
// are never dirty and the machine forwards each hit's store to the home
// bank as fire-and-forget background traffic instead.
//
// Determinism: tag state is plain arrays updated in event pop order,
// which is identical across engines — so hit/miss outcomes, counters
// and eviction traffic are bit-identical between kCalendar and
// kReference (tests/engine_equivalence_test.cpp).

#include <cstdint>
#include <vector>

#include "cache/config.hpp"

namespace dxbsp::cache {

class CacheTier {
 public:
  /// `cfg` must be enabled() and validate()d; one tag array per
  /// processor is allocated up front.
  CacheTier(const CacheConfig& cfg, std::uint64_t processors);

  /// Outcome of one access, enough for the machine to generate the
  /// modelled traffic: a miss that displaced a dirty line carries the
  /// victim's representative word address (line id · line_words) so the
  /// writeback can be routed to the victim's home bank.
  struct Access {
    bool hit = false;
    bool writeback = false;
    std::uint64_t victim_addr = 0;
  };

  /// Looks up — and on a miss fills — the line of `addr` in processor
  /// `proc`'s cache. Called once per fresh issue (retries of a NACKed
  /// request never re-touch the tier).
  Access access(std::uint64_t proc, std::uint64_t addr);

  /// Cold-starts the tags and zeroes the per-op counters (bulk
  /// operations are independent).
  void reset();

  // Per-op counters, reset() to zero.
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t writebacks() const noexcept {
    return writebacks_;
  }
  /// Max per-processor miss count — the h_proc of the miss traffic, the
  /// issue-side term of the hit-ratio-corrected predictor
  /// (core::dxbsp_step_time_cached).
  [[nodiscard]] std::uint64_t max_proc_misses() const noexcept;

  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;

  CacheConfig cfg_;
  std::uint64_t processors_;
  std::uint64_t sets_;
  std::uint64_t ways_;
  // Way 0 is the most-recent slot of its set; evictions take the last
  // way. Flattened [proc][set][way].
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint64_t> proc_misses_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace dxbsp::cache
