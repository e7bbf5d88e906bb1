#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile: q outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

std::uint64_t samples_beyond(std::uint64_t n, std::uint64_t percent) {
  const std::uint64_t at_or_below = (n * percent + 99) / 100;
  return n - std::min(n, at_or_below);
}

TimingSummary summarize(const std::vector<double>& samples) {
  TimingSummary s;
  s.count = samples.size();
  s.p50 = median(samples);
  if (samples_beyond(s.count, 90) >= kMinTailSamples)
    s.p90 = quantile(samples, 0.9);
  return s;
}

void Digest::add_double(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

}  // namespace perfbench
