#include "algos/collectives.hpp"

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dxbsp::algos {

std::vector<std::uint64_t> broadcast_naive(Vm& vm, std::uint64_t value,
                                           std::uint64_t n) {
  auto cell = vm.make_array<std::uint64_t>(1, value);
  std::vector<std::uint64_t> out(n, 0);
  const std::vector<std::uint64_t> addrs(n, cell.region.addr(0));
  for (auto& v : out) v = cell.data[0];
  vm.bulk(addrs, "bcast-naive-read");
  return out;
}

std::vector<std::uint64_t> broadcast_replicated(Vm& vm, std::uint64_t value,
                                                std::uint64_t n,
                                                std::uint64_t seed,
                                                std::uint64_t target_contention,
                                                BroadcastStats* stats) {
  if (target_contention == 0) target_contention = 1;
  const std::uint64_t want =
      std::min<std::uint64_t>(util::ceil_pow2(util::ceil_div(
                                  n, target_contention)),
                              util::ceil_pow2(std::max<std::uint64_t>(n, 1)));
  auto replicas = vm.make_array<std::uint64_t>(std::max<std::uint64_t>(want, 1));
  replicas.data[0] = value;

  // Doubling rounds: round r copies replicas [0, 2^r) to [2^r, 2^{r+1}).
  // Sources and destinations are all distinct cells: contention 1.
  std::uint64_t copies = 1, rounds = 0;
  while (copies < want) {
    std::vector<std::uint64_t> addrs;
    addrs.reserve(2 * copies);
    for (std::uint64_t c = 0; c < copies; ++c) {
      replicas.data[copies + c] = replicas.data[c];
      addrs.push_back(replicas.region.addr(c));           // read
      addrs.push_back(replicas.region.addr(copies + c));  // write
    }
    vm.bulk(addrs, "bcast-replicate");
    copies *= 2;
    ++rounds;
  }

  // Final read: each consumer picks a random replica.
  util::Xoshiro256 rng(util::substream(seed, 95));
  std::vector<std::uint64_t> out(n);
  std::vector<std::uint64_t> addrs(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t c = rng.below(copies);
    out[i] = replicas.data[c];
    addrs[i] = replicas.region.addr(c);
  }
  vm.bulk(addrs, "bcast-replicated-read");

  if (stats != nullptr) {
    stats->rounds = rounds;
    stats->copies = copies;
    stats->read_contention = vm.last_contention(n);
  }
  return out;
}

std::uint64_t reduce_naive(Vm& vm, std::span<const std::uint64_t> xs) {
  auto root = vm.make_array<std::uint64_t>(1, 0);
  const std::vector<std::uint64_t> idx(xs.size(), 0);
  vm.scatter_add(root, idx, xs, "reduce-naive-fetch-add");
  return root.data[0];
}

std::uint64_t reduce_tree(Vm& vm, std::span<const std::uint64_t> xs) {
  const std::uint64_t p = vm.config().processors;
  // Per-processor partial sums: one contiguous read pass.
  auto scratch = vm.reserve(std::max<std::uint64_t>(xs.size(), 1));
  std::vector<std::uint64_t> partial(p, 0);
  for (std::uint64_t i = 0; i < xs.size(); ++i)
    partial[vm.proc_of(i, xs.size())] += xs[i];
  vm.contiguous(scratch, xs.size(), 1.0, "reduce-tree-partials");
  // log p combining rounds over p cells (tiny; charged as compute).
  std::uint64_t total = 0;
  for (const auto s : partial) total += s;
  vm.compute(p, static_cast<double>(util::log2_ceil(p + 1)),
             "reduce-tree-combine");
  return total;
}

}  // namespace dxbsp::algos
