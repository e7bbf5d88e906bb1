#pragma once
// The bank array: per-bank FIFO service with a fixed busy period d,
// optionally refined with a per-bank line cache ([HS93]) and request
// combining (Ranade-style).
//
// A bank accepts a request only every d cycles ("bank delay"); a request
// arriving while the bank is busy queues (FIFO by arrival). With caching
// enabled, each bank keeps an MRU list of recently touched lines and
// serves hits in `cached_delay` cycles. With combining enabled, a
// request for a word that is already queued or in service at its bank is
// merged with the pending one and occupies no extra bank time.
//
// Only a word requested at least twice in an op can combine, so the
// combining table holds those words alone: reset() seeds it with the
// op's repeated addresses (Machine::profile collects them while it
// counts the location contention), and serve_addr only updates a seeded
// entry in place. A word requested once keeps no entry; its entry would
// be written once and never read, since each element is served at most
// once (a retry re-issues an element only after its earlier attempt was
// NACKed before service). So the table is sized to the op's repeated
// words, not to the op, and stays cache-resident on a large op.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/flat_map.hpp"

namespace dxbsp::obs {
class MetricsRegistry;
}

namespace dxbsp::sim {

/// Optional bank-cache parameters (0 lines disables caching).
struct BankCacheConfig {
  std::uint64_t lines = 0;        ///< MRU lines per bank
  std::uint64_t line_words = 8;   ///< words per line
  std::uint64_t cached_delay = 1; ///< busy period on a hit
};

/// Per-bank FIFO servers with service period `delay`.
class BankArray {
 public:
  BankArray(std::uint64_t num_banks, std::uint64_t delay,
            BankCacheConfig cache = {}, bool combining = false,
            std::uint64_t ports = 1);

  /// Serves a request arriving at bank `bank` at time `arrival`.
  /// Returns the completion time (service start + busy period). Arrivals
  /// at a given bank must be presented in nondecreasing arrival order
  /// (the machine's event loop guarantees this). This path never caches
  /// or combines (no address is known). `busy_scale` multiplies the busy
  /// period (fault injection: a transiently slow bank); the excess over
  /// the nominal period is accounted in degraded_cycles().
  std::uint64_t serve(std::uint64_t bank, std::uint64_t arrival,
                      std::uint64_t busy_scale = 1);

  /// Serves a request for word `addr`, applying caching and combining
  /// when configured. Must also be called in nondecreasing arrival order
  /// per bank. Only a word reset() seeded can combine.
  std::uint64_t serve_addr(std::uint64_t bank, std::uint64_t arrival,
                           std::uint64_t addr, std::uint64_t busy_scale = 1);

  /// Whether the SoA kernel's fused free-chain (open_chain() ..
  /// finish_chain()) may replace a sequence of unscaled serve (or, when
  /// `address_aware`, serve_addr) calls: single-port banks with — for
  /// the address-aware path — neither combining nor a bank cache, so
  /// service time is the unconditional FIFO recurrence
  /// fin = max(arrival, free) + delay.
  [[nodiscard]] bool batchable(bool address_aware) const noexcept {
    return ports_ == 1 &&
           (!address_aware || (!combining_ && cache_.lines == 0));
  }

  /// Exposes the raw per-bank free-time array so the SoA kernel
  /// (docs/performance.md §soa) can run the FIFO recurrence
  /// fin = max(arrival, chain[b]) + delay() inline in its pop-order
  /// loop. batchable(...) must hold. The caller MUST follow with exactly
  /// one finish_chain() to commit the counters the chained serves
  /// bypassed.
  [[nodiscard]] std::uint64_t* open_chain() noexcept { return free_at_.data(); }

  /// Commits a fused-chain pass: `counts[b]` requests were chained onto
  /// bank b (counts has num_banks() entries, summing to `total`), and
  /// the final request in pop order started service at `final_start`.
  /// Leaves every counter exactly as `total` serve() calls would have.
  void finish_chain(const std::uint64_t* counts, std::uint64_t total,
                    std::uint64_t final_start);

  [[nodiscard]] std::uint64_t num_banks() const noexcept {
    return static_cast<std::uint64_t>(load_.size());
  }
  [[nodiscard]] std::uint64_t ports() const noexcept { return ports_; }
  [[nodiscard]] std::uint64_t delay() const noexcept { return delay_; }

  /// Requests counted against the busiest bank so far (combined requests
  /// do not count — they consume no bank time).
  [[nodiscard]] std::uint64_t max_load() const noexcept { return max_load_; }

  /// Total requests presented (including combined ones).
  [[nodiscard]] std::uint64_t total_served() const noexcept { return total_; }

  /// Cache hits (0 unless caching is configured).
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }

  /// Requests merged by combining (0 unless combining is configured).
  [[nodiscard]] std::uint64_t combined() const noexcept { return combined_; }

  /// Extra busy cycles incurred by scaled (degraded) service: the sum of
  /// busy·(scale-1) over all serves (0 without fault injection).
  [[nodiscard]] std::uint64_t degraded_cycles() const noexcept {
    return degraded_cycles_;
  }

  /// Per-bank request counts (serviced, i.e. excluding combined).
  [[nodiscard]] const std::vector<std::uint64_t>& loads() const noexcept {
    return load_;
  }

  /// Earliest time any port of the given bank becomes free.
  [[nodiscard]] std::uint64_t free_at(std::uint64_t bank) const;

  /// Service start time of the most recent serve/serve_addr call (for a
  /// combined request: the arrival time, since it occupied no bank slot).
  [[nodiscard]] std::uint64_t last_start() const noexcept {
    return last_start_;
  }
  /// Whether the most recent serve_addr call was merged by combining.
  [[nodiscard]] bool last_combined() const noexcept { return last_combined_; }

  /// Publishes this array's counters into `reg` under the "bank." prefix
  /// (requests served, cache hits, combined, degraded cycles; max load
  /// as a max-gauge). Called by Machine at the end of each bulk op.
  void publish(obs::MetricsRegistry& reg) const;

  /// Resets all banks to idle and clears statistics. With combining,
  /// `combinable` lists the words that may combine in the coming op
  /// (every word it requests at least twice; duplicates are harmless):
  /// they seed the combining table, so serve_addr never inserts and the
  /// table never rehashes. Ignored without combining.
  void reset(std::span<const std::uint64_t> combinable = {});

 private:
  std::uint64_t occupy(std::uint64_t bank, std::uint64_t arrival,
                       std::uint64_t busy);

  std::uint64_t delay_;
  BankCacheConfig cache_;
  bool combining_;
  std::uint64_t ports_;

  // Port free times, flattened: bank b's ports occupy
  // free_at_[b*ports_ .. (b+1)*ports_).
  std::vector<std::uint64_t> free_at_;
  std::vector<std::uint64_t> load_;
  // Per-bank MRU line ids, flattened: bank b owns
  // mru_[b*cache_.lines .. (b+1)*cache_.lines). ~0 = empty slot.
  std::vector<std::uint64_t> mru_;
  // Combining: pending service completion per combinable word (an
  // address lives in exactly one bank, so a single map is sound). Seeded
  // by reset() at completion 0, which no arrival precedes; a stale
  // completion is ignored the same way (the `> arrival` check).
  util::FlatMap64 pending_;

  std::uint64_t max_load_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t combined_ = 0;
  std::uint64_t degraded_cycles_ = 0;
  std::uint64_t last_start_ = 0;
  bool last_combined_ = false;
};

}  // namespace dxbsp::sim
