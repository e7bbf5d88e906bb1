#include "algos/list_ranking.hpp"

#include <stdexcept>

#include "util/bits.hpp"
#include "workload/patterns.hpp"

namespace dxbsp::algos {

std::vector<std::uint64_t> list_rank(Vm& vm,
                                     std::span<const std::uint64_t> next,
                                     ListRankStats* stats) {
  const std::uint64_t n = next.size();
  if (n == 0) return {};
  std::uint64_t tail = n;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (next[i] >= n)
      throw std::invalid_argument("list_rank: successor out of range");
    if (next[i] == i) {
      if (tail != n)
        throw std::invalid_argument("list_rank: multiple tails");
      tail = i;
    }
  }
  if (tail == n) throw std::invalid_argument("list_rank: no tail");

  auto nxt = vm.make_array<std::uint64_t>(n);
  auto rank = vm.make_array<std::uint64_t>(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    nxt.data[i] = next[i];
    rank.data[i] = next[i] == i ? 0 : 1;
  }
  vm.contiguous(nxt.region, n, 2.0, "rank-init");

  const std::uint64_t max_rounds = util::log2_ceil(n + 1) + 2;
  std::uint64_t round = 0;
  for (;;) {
    if (++round > max_rounds)
      throw std::invalid_argument("list_rank: not a single-tail list");
    // Gather successor ranks and successors' successors.
    std::vector<std::uint64_t> srank, snext;
    vm.gather(srank, rank, nxt.data, "rank-gather-rank");
    vm.gather(snext, nxt, nxt.data, "rank-gather-next");

    if (stats != nullptr) {
      ListRankRound r;
      r.gather_contention = vm.last_contention(n);
      for (std::uint64_t i = 0; i < n; ++i) r.active += (nxt.data[i] != i);
      stats->rounds.push_back(r);
    }

    bool changed = false;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (nxt.data[i] == i) continue;
      rank.data[i] += srank[i];
      nxt.data[i] = snext[i];
      changed = true;
    }
    vm.contiguous(rank.region, n, 2.0, "rank-update");
    if (!changed) break;
    // Done once every pointer reaches the tail (next == next's next for
    // all, i.e. all point at the self-looped tail).
    bool flat = true;
    for (std::uint64_t i = 0; i < n && flat; ++i)
      flat = (nxt.data[i] == nxt.data[nxt.data[i]]);
    if (flat) break;
  }
  // Detached cycles can fold onto themselves (a cycle whose length
  // divides 2^rounds becomes a forest of fake self-loops) — only
  // convergence onto the *input* tail certifies a genuine list.
  for (std::uint64_t i = 0; i < n; ++i)
    if (nxt.data[i] != tail)
      throw std::invalid_argument("list_rank: input contains a cycle");
  return rank.data;
}

std::vector<std::uint64_t> random_list(std::uint64_t n, std::uint64_t seed) {
  // Visit order = seeded permutation; node order[j] precedes order[j+1].
  const auto order = workload::random_permutation(n, seed);
  std::vector<std::uint64_t> next(n);
  for (std::uint64_t j = 0; j + 1 < n; ++j) next[order[j]] = order[j + 1];
  if (n > 0) next[order[n - 1]] = order[n - 1];  // tail self-loop
  return next;
}

std::vector<std::uint64_t> reference_list_rank(
    std::span<const std::uint64_t> next) {
  const std::uint64_t n = next.size();
  std::vector<std::uint64_t> rank(n, 0);
  // Find the tail, then walk backwards by inverting the list.
  std::vector<std::uint64_t> prev(n, ~0ULL);
  std::uint64_t tail = ~0ULL;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (next[i] == i) {
      tail = i;
    } else {
      prev[next[i]] = i;
    }
  }
  if (tail == ~0ULL) throw std::invalid_argument("reference: no tail");
  std::uint64_t node = tail, r = 0;
  while (true) {
    rank[node] = r++;
    if (prev[node] == ~0ULL) break;
    node = prev[node];
  }
  return rank;
}

}  // namespace dxbsp::algos
