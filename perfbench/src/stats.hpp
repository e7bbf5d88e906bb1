#pragma once
// Sample statistics for the benchmark's timings: linear-interpolation
// quantiles, the "ten samples beyond" rule for reporting a high
// percentile, and the FNV-1a fold used for output digests.

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `samples` by linear interpolation between the
/// closest ranks (the "linear" method: q·(n-1) is the fractional rank).
/// Throws std::invalid_argument on an empty sample or q outside [0, 1].
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] double median(const std::vector<double>& samples);

/// Number of samples ranked beyond the `percent`-th percentile of n
/// samples: n - ceil(n·percent/100), in integer arithmetic.
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n,
                                           std::uint64_t percent);

/// Minimum tail that makes a high percentile reportable.
inline constexpr std::uint64_t kMinTailSamples = 10;

/// Timing summary of one run: the median always, p90 only when at least
/// kMinTailSamples samples lie beyond it.
struct TimingSummary {
  std::uint64_t count = 0;
  double p50 = 0.0;
  std::optional<double> p90;
};

/// Summarizes a non-empty sample.
[[nodiscard]] TimingSummary summarize(const std::vector<double>& samples);

/// 64-bit FNV-1a over whole words; order-sensitive.
class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void add(std::initializer_list<std::uint64_t> words) noexcept {
    for (const std::uint64_t w : words) add(w);
  }
  void add_double(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace perfbench
