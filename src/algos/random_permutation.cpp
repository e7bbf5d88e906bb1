#include "algos/random_permutation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "algos/radix_sort.hpp"
#include "algos/scan.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dxbsp::algos {

std::vector<std::uint64_t> random_permutation_qrqw(Vm& vm, std::uint64_t n,
                                                   std::uint64_t seed,
                                                   double rho,
                                                   DartStats* stats) {
  if (rho <= 1.0)
    throw std::invalid_argument("random_permutation_qrqw: rho must be > 1");
  if (n == 0) return {};

  const auto table_size = static_cast<std::uint64_t>(
      std::ceil(rho * static_cast<double>(n)));
  constexpr std::uint64_t kEmpty = ~0ULL;

  auto table = vm.make_array<std::uint64_t>(table_size, kEmpty);
  std::vector<std::uint64_t> slot_of(n, kEmpty);

  util::Xoshiro256 rng(util::substream(seed, 40));
  std::vector<std::uint64_t> live(n);
  for (std::uint64_t i = 0; i < n; ++i) live[i] = i;

  std::vector<std::uint64_t> targets;
  while (!live.empty()) {
    // Draw targets (vectorized RNG: ~6 ops/element on the machine).
    targets.resize(live.size());
    for (auto& t : targets) t = rng.below(table_size);
    vm.compute(live.size(), 6.0, "perm-darts-rng");

    // Scatter ids at the targets (arbitrary winner); cells claimed in a
    // previous round must not be overwritten, so write only into empties
    // (a masked vector scatter — the memory system still sees every dart).
    {
      std::vector<std::uint64_t> addrs(targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        addrs[i] = table.region.addr(targets[i]);
        if (table.data[targets[i]] == kEmpty ||
            slot_of[table.data[targets[i]]] != targets[i]) {
          // Cell is empty, or holds a loser's stale id: claim it.
          table.data[targets[i]] = live[i];
        }
      }
      vm.bulk(addrs, "perm-darts-scatter");
    }

    // Read back: an element whose id survived at its target cell wins.
    {
      std::vector<std::uint64_t> addrs(targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i)
        addrs[i] = table.region.addr(targets[i]);
      vm.bulk(addrs, "perm-darts-readback");
    }
    const std::uint64_t round_contention = vm.last_contention(targets.size());

    std::vector<std::uint64_t> next_live;
    std::uint64_t winners = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint64_t id = live[i];
      if (table.data[targets[i]] == id) {
        slot_of[id] = targets[i];
        ++winners;
      } else {
        next_live.push_back(id);
      }
    }
    vm.compute(live.size(), 2.0, "perm-darts-check");

    if (stats != nullptr) {
      DartRound r;
      r.live = live.size();
      r.winners = winners;
      r.max_contention = round_contention;
      stats->rounds.push_back(r);
      stats->total_darts += live.size();
    }
    live.swap(next_live);
  }

  // Pack: rank of each occupied cell = exclusive scan of occupancy flags;
  // element i's permutation value is the rank of its cell.
  auto flags = vm.make_array<std::uint64_t>(table_size, 0);
  for (std::uint64_t c = 0; c < table_size; ++c)
    flags.data[c] = (table.data[c] != kEmpty &&
                     slot_of[table.data[c]] == c)
                        ? 1
                        : 0;
  vm.contiguous(table.region, table_size, 1.0, "perm-pack-flag");
  exclusive_scan(vm, flags, OpAdd{}, std::uint64_t{0}, "perm-pack-scan");

  std::vector<std::uint64_t> perm(n);
  {
    std::vector<std::uint64_t> addrs(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      perm[i] = flags.data[slot_of[i]];
      addrs[i] = flags.region.addr(slot_of[i]);
    }
    vm.bulk(addrs, "perm-pack-gather");  // distinct cells: contention-free
  }
  return perm;
}

std::vector<std::uint64_t> random_permutation_erew(Vm& vm, std::uint64_t n,
                                                   std::uint64_t seed,
                                                   unsigned key_bits) {
  if (n == 0) return {};
  if (key_bits == 0)
    key_bits = std::min<unsigned>(2 * std::max(1u, util::log2_ceil(n)), 62);

  util::Xoshiro256 rng(util::substream(seed, 41));
  const std::uint64_t mask =
      key_bits >= 64 ? ~0ULL : ((1ULL << key_bits) - 1);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng() & mask;
  vm.compute(n, 4.0, "perm-keygen");

  const RadixSortResult sorted = radix_sort(vm, keys, key_bits);
  return sorted.rank;
}

bool is_permutation_of_iota(const std::vector<std::uint64_t>& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (const auto v : perm) {
    if (v >= perm.size() || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

}  // namespace dxbsp::algos
