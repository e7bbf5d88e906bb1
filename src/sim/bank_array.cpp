#include "sim/bank_array.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "resilience/error.hpp"

namespace dxbsp::sim {

BankArray::BankArray(std::uint64_t num_banks, std::uint64_t delay,
                     BankCacheConfig cache, bool combining,
                     std::uint64_t ports)
    : delay_(delay),
      cache_(cache),
      combining_(combining),
      ports_(ports),
      free_at_(num_banks * ports, 0),
      load_(num_banks, 0) {
  if (num_banks == 0)
    raise(ErrorCode::kConfig, "BankArray: need at least one bank");
  if (delay == 0) raise(ErrorCode::kConfig, "BankArray: delay must be >= 1");
  if (ports == 0) raise(ErrorCode::kConfig, "BankArray: ports must be >= 1");
  if (cache_.lines > 0) {
    if (cache_.line_words == 0)
      raise(ErrorCode::kConfig, "BankArray: cache line_words must be >= 1");
    if (cache_.cached_delay == 0 || cache_.cached_delay > delay_)
      raise(ErrorCode::kConfig,
            "BankArray: cached_delay must be in [1, delay]");
    mru_.assign(num_banks * cache_.lines, ~0ULL);
  }
}

std::uint64_t BankArray::occupy(std::uint64_t bank, std::uint64_t arrival,
                                std::uint64_t busy) {
  // Serve on the earliest-free port of the bank. Single-port banks (the
  // common case) skip the port scan and the base-offset multiply.
  std::uint64_t* slot;
  if (ports_ == 1) {
    slot = &free_at_[bank];
  } else {
    std::uint64_t* ports = &free_at_[bank * ports_];
    std::uint64_t best = 0;
    for (std::uint64_t q = 1; q < ports_; ++q)
      if (ports[q] < ports[best]) best = q;
    slot = &ports[best];
  }
  const std::uint64_t start = std::max(arrival, *slot);
  last_start_ = start;
  last_combined_ = false;
  *slot = start + busy;
  const std::uint64_t count = ++load_[bank];
  max_load_ = std::max(max_load_, count);
  return *slot;
}

std::uint64_t BankArray::serve(std::uint64_t bank, std::uint64_t arrival,
                               std::uint64_t busy_scale) {
  ++total_;
  if (busy_scale > 1) degraded_cycles_ += delay_ * (busy_scale - 1);
  return occupy(bank, arrival, delay_ * busy_scale);
}

std::uint64_t BankArray::serve_addr(std::uint64_t bank, std::uint64_t arrival,
                                    std::uint64_t addr,
                                    std::uint64_t busy_scale) {
  ++total_;

  std::uint64_t* pend = nullptr;  // the word's seeded entry, if combinable
  if (combining_) {
    pend = pending_.find(addr);
    if (pend != nullptr && *pend > arrival) {
      // A request for this word is still queued or in service: ride it.
      ++combined_;
      last_start_ = arrival;  // no bank slot consumed
      last_combined_ = true;
      return *pend;
    }
  }

  std::uint64_t busy = delay_;
  if (cache_.lines > 0) {
    const std::uint64_t line = addr / cache_.line_words;
    std::uint64_t* const slots = &mru_[bank * cache_.lines];
    std::uint64_t* const end = slots + cache_.lines;
    std::uint64_t* const hit = std::find(slots, end, line);
    if (hit != end) {
      busy = cache_.cached_delay;
      ++hits_;
      // Move-to-front: one rotate of [front, hit] instead of the old
      // element-by-element shift-down.
      std::rotate(slots, hit, hit + 1);
    } else {
      // Miss: evict the LRU tail and insert at the front.
      std::rotate(slots, end - 1, end);
      slots[0] = line;
    }
  }

  if (busy_scale > 1) degraded_cycles_ += busy * (busy_scale - 1);
  const std::uint64_t end = occupy(bank, arrival, busy * busy_scale);
  if (pend != nullptr) *pend = end;
  return end;
}

void BankArray::finish_chain(const std::uint64_t* counts, std::uint64_t total,
                             std::uint64_t final_start) {
  const std::uint64_t nb = num_banks();
  for (std::uint64_t b = 0; b < nb; ++b) {
    const std::uint64_t load = load_[b] + counts[b];
    load_[b] = load;
    max_load_ = std::max(max_load_, load);
  }
  total_ += total;
  last_start_ = final_start;
  last_combined_ = false;
}

void BankArray::publish(obs::MetricsRegistry& reg) const {
  reg.counter("bank.requests").add(total_);
  // A hit counter is only meaningful when some cache can produce hits;
  // an unconditional zero row on uncached machines reads as "cache
  // present, cold" (issue: retired misleading counter).
  if (cache_.lines > 0) reg.counter("bank.cache_hits").add(hits_);
  reg.counter("bank.combined").add(combined_);
  reg.counter("bank.degraded_cycles").add(degraded_cycles_);
  reg.gauge("bank.max_load").observe(max_load_);
}

void BankArray::reset(std::span<const std::uint64_t> combinable) {
  std::fill(free_at_.begin(), free_at_.end(), 0);
  std::fill(load_.begin(), load_.end(), 0);
  std::fill(mru_.begin(), mru_.end(), ~0ULL);
  pending_.clear();
  if (combining_) {
    pending_.reserve(combinable.size());
    for (const std::uint64_t addr : combinable)
      pending_.insert_or_assign(addr, 0);
  }
  max_load_ = 0;
  total_ = 0;
  hits_ = 0;
  combined_ = 0;
  degraded_cycles_ = 0;
}

std::uint64_t BankArray::free_at(std::uint64_t bank) const {
  // Unchecked indexing, consistent with occupy(): this sits on the
  // per-event trace path and bank ids are validated at entry to the
  // bulk op, not per query. Single-port banks skip the scan.
  if (ports_ == 1) return free_at_[bank];
  const std::uint64_t* ports = &free_at_[bank * ports_];
  std::uint64_t best = ports[0];
  for (std::uint64_t q = 1; q < ports_; ++q) best = std::min(best, ports[q]);
  return best;
}

}  // namespace dxbsp::sim
