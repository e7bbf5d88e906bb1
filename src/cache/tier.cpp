#include "cache/tier.hpp"

#include <algorithm>

#include "resilience/error.hpp"

namespace dxbsp::cache {

CacheTier::CacheTier(const CacheConfig& cfg, std::uint64_t processors)
    : cfg_(cfg),
      processors_(processors),
      sets_(cfg.sets()),
      ways_(cfg.ways()) {
  cfg_.validate();
  if (!cfg_.enabled())
    raise(ErrorCode::kConfig, "CacheTier: capacity must be >= 1");
  if (processors_ == 0)
    raise(ErrorCode::kConfig, "CacheTier: processors must be >= 1");
  tags_.assign(processors_ * cfg_.capacity, kEmpty);
  dirty_.assign(processors_ * cfg_.capacity, 0);
  proc_misses_.assign(processors_, 0);
}

CacheTier::Access CacheTier::access(std::uint64_t proc, std::uint64_t addr) {
  const std::uint64_t line = cfg_.line_of(addr);
  const std::uint64_t set = line & (sets_ - 1);
  const std::size_t base =
      static_cast<std::size_t>((proc * sets_ + set) * ways_);
  std::uint64_t* tags = tags_.data() + base;
  std::uint8_t* dirty = dirty_.data() + base;

  for (std::uint64_t w = 0; w < ways_; ++w) {
    if (tags[w] != line) continue;
    ++hits_;
    // Store-stream semantics: a write-back hit dirties the line.
    const std::uint8_t d = cfg_.write == WritePolicy::kBack ? 1 : dirty[w];
    if (w != 0) {
      // Promote to most-recent: shift [0, w) down one way.
      std::copy_backward(tags, tags + w, tags + w + 1);
      std::copy_backward(dirty, dirty + w, dirty + w + 1);
      tags[0] = line;
    }
    dirty[0] = d;
    return Access{true, false, 0};
  }

  // Miss: evict the last way, fill at way 0. A write-back fill is
  // allocated dirty (the store that missed lands in the line).
  ++misses_;
  ++proc_misses_[proc];
  const std::uint64_t victim = tags[ways_ - 1];
  const bool writeback = victim != kEmpty && dirty[ways_ - 1] != 0;
  if (writeback) ++writebacks_;
  std::copy_backward(tags, tags + ways_ - 1, tags + ways_);
  std::copy_backward(dirty, dirty + ways_ - 1, dirty + ways_);
  tags[0] = line;
  dirty[0] = cfg_.write == WritePolicy::kBack ? 1 : 0;
  return Access{false, writeback, victim * cfg_.line_words};
}

void CacheTier::reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(proc_misses_.begin(), proc_misses_.end(), 0);
  hits_ = 0;
  misses_ = 0;
  writebacks_ = 0;
}

std::uint64_t CacheTier::max_proc_misses() const noexcept {
  std::uint64_t m = 0;
  for (const std::uint64_t c : proc_misses_) m = std::max(m, c);
  return m;
}

}  // namespace dxbsp::cache
