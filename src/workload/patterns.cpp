#include "workload/patterns.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace dxbsp::workload {

namespace {

/// Appends `count` distinct random addresses from [0, space) to `out`,
/// avoiding everything already in `used` (a set: bump() == 1 means the
/// draw was new). Callers reserve `used` for every address it will hold,
/// so the draw loop never rehashes.
void append_distinct(std::vector<std::uint64_t>& out, util::FlatMap64& used,
                     std::uint64_t count, std::uint64_t space,
                     util::Xoshiro256& rng) {
  if (used.size() + count > space)
    throw std::invalid_argument("address space too small for distinct draw");
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t a;
    do {
      a = rng.below(space);
    } while (used.bump(a) != 1);
    out.push_back(a);
  }
}

}  // namespace

std::vector<std::uint64_t> distinct_random(std::uint64_t n, std::uint64_t space,
                                           std::uint64_t seed) {
  if (space < n)
    throw std::invalid_argument("distinct_random: space must be >= n");
  util::Xoshiro256 rng(util::substream(seed, 1));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  if (space <= 2 * n) {
    // Dense case: rejection sampling would thrash; permute a prefix instead.
    std::vector<std::uint64_t> pool(space);
    for (std::uint64_t i = 0; i < space; ++i) pool[i] = i;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t j = i + rng.below(space - i);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
    return out;
  }
  util::FlatMap64 used;
  used.reserve(static_cast<std::size_t>(n));
  append_distinct(out, used, n, space, rng);
  return out;
}

std::vector<std::uint64_t> uniform_random(std::uint64_t n, std::uint64_t space,
                                          std::uint64_t seed) {
  if (space == 0) throw std::invalid_argument("uniform_random: empty space");
  util::Xoshiro256 rng(util::substream(seed, 2));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(rng.below(space));
  return out;
}

std::vector<std::uint64_t> k_hot(std::uint64_t n, std::uint64_t k,
                                 std::uint64_t space, std::uint64_t seed) {
  return multi_hot(n, 1, k, space, seed);
}

std::vector<std::uint64_t> multi_hot(std::uint64_t n,
                                     std::uint64_t hot_locations,
                                     std::uint64_t k, std::uint64_t space,
                                     std::uint64_t seed) {
  if (k == 0 || hot_locations == 0)
    throw std::invalid_argument("multi_hot: k and hot_locations must be >= 1");
  if (hot_locations * k > n)
    throw std::invalid_argument("multi_hot: hot requests exceed n");
  if (space < n)
    throw std::invalid_argument("multi_hot: space must be >= n");
  util::Xoshiro256 rng(util::substream(seed, 3));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  util::FlatMap64 used;
  used.reserve(static_cast<std::size_t>(n));
  // Draw the hot addresses first, then emit k copies of each.
  std::vector<std::uint64_t> hot;
  append_distinct(hot, used, hot_locations, space, rng);
  for (const std::uint64_t h : hot)
    for (std::uint64_t i = 0; i < k; ++i) out.push_back(h);
  append_distinct(out, used, n - hot_locations * k, space, rng);
  shuffle(out, util::substream(seed, 4));
  return out;
}

std::vector<std::uint64_t> strided(std::uint64_t n, std::uint64_t stride,
                                   std::uint64_t base) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(base + i * stride);
  return out;
}

std::vector<std::uint64_t> cyclic(std::uint64_t n, std::uint64_t period) {
  if (period == 0) throw std::invalid_argument("cyclic: period must be >= 1");
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(i % period);
  return out;
}

std::vector<std::uint64_t> random_permutation(std::uint64_t n,
                                              std::uint64_t seed) {
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = i;
  shuffle(out, util::substream(seed, 5));
  return out;
}

std::vector<std::uint64_t> zipf(std::uint64_t n, std::uint64_t space,
                                double theta, std::uint64_t seed) {
  if (space == 0 || space > (1ULL << 22))
    throw std::invalid_argument("zipf: space must be in [1, 2^22]");
  if (theta < 0.0) throw std::invalid_argument("zipf: theta must be >= 0");
  // Inverse-CDF table over the ranks. The hot ranks sit at the low
  // addresses; callers who need them scattered can hash the result.
  std::vector<double> cdf(space);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < space; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[r] = acc;
  }
  util::Xoshiro256 rng(util::substream(seed, 6));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double u = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    out.push_back(static_cast<std::uint64_t>(it - cdf.begin()));
  }
  return out;
}

void shuffle(std::vector<std::uint64_t>& xs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (std::uint64_t i = xs.size(); i > 1; --i) {
    const std::uint64_t j = rng.below(i);
    std::swap(xs[i - 1], xs[j]);
  }
}

std::uint64_t stream_element(std::uint64_t seed, std::uint64_t i,
                             std::uint64_t space, std::uint64_t hot_every) {
  if (space == 0)
    throw std::invalid_argument("stream_element: space must be >= 1");
  if (hot_every != 0 && i % hot_every == 0) return 0;
  const std::uint64_t h = util::mix64(util::substream(seed, 7) ^ util::mix64(i));
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * space) >> 64);
}

std::vector<std::uint64_t> stream_slab(std::uint64_t seed, std::uint64_t begin,
                                       std::uint64_t count, std::uint64_t space,
                                       std::uint64_t hot_every) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    out.push_back(stream_element(seed, begin + i, space, hot_every));
  return out;
}

}  // namespace dxbsp::workload
