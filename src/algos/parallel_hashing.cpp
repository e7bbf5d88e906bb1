#include "algos/parallel_hashing.hpp"

#include <stdexcept>
#include <unordered_set>

#include "mem/hash.hpp"
#include "util/rng.hpp"

namespace dxbsp::algos {

namespace {
/// Round-r probe cell for `key`: a fresh cubic universal hash per round,
/// multiply-shift reduced to the table size.
std::uint64_t probe_cell(std::uint64_t key, std::uint64_t hash_seed,
                         std::uint64_t slots) {
  util::Xoshiro256 rng(hash_seed);
  const mem::PolynomialHash h(mem::HashDegree::kCubic, 32, rng);
  return (h(key) * slots) >> 32;
}
}  // namespace

ParallelHashTable::ParallelHashTable(Vm& vm,
                                     std::span<const std::uint64_t> keys,
                                     std::uint64_t slots, std::uint64_t seed,
                                     HashBuildStats* stats)
    : slots_(slots), seed_(seed), keys_(keys.begin(), keys.end()) {
  if (slots_ < keys.size() + 1)
    throw std::invalid_argument("ParallelHashTable: table too small");
  {
    std::unordered_set<std::uint64_t> distinct(keys.begin(), keys.end());
    if (distinct.size() != keys.size())
      throw std::invalid_argument("ParallelHashTable: keys must be distinct");
  }

  table_ = vm.make_array<std::uint64_t>(slots_, kNotFound);
  vm.contiguous(table_.region, slots_, 1.0, "hash-init");
  round_of_.assign(keys.size(), 0);

  std::vector<std::uint64_t> live(keys.size());
  for (std::uint64_t i = 0; i < keys.size(); ++i) live[i] = i;

  std::uint64_t round = 0;
  const std::uint64_t max_rounds = 64 + 2 * keys.size();
  while (!live.empty()) {
    if (round >= max_rounds)
      throw std::logic_error("ParallelHashTable: build failed to converge");
    const std::uint64_t hash_seed = util::substream(seed_, 200 + round);
    hash_seeds_.push_back(hash_seed);

    // Probe-write: each live key claims its round-r cell if empty
    // (arbitrary winner among this round's claimants).
    std::vector<std::uint64_t> cells(live.size());
    std::vector<std::uint64_t> addrs(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      cells[i] = probe_cell(keys_[live[i]], hash_seed, slots_);
      addrs[i] = table_.region.addr(cells[i]);
      if (table_.data[cells[i]] == kNotFound ||
          round_of_[table_.data[cells[i]]] == round) {
        // Empty, or claimed only this round (later claimant wins).
        if (table_.data[cells[i]] == kNotFound) {
          table_.data[cells[i]] = live[i];
          round_of_[live[i]] = round;
        } else {
          // Overwrite a same-round claimant.
          round_of_[table_.data[cells[i]]] = 0;  // loser, reset marker
          table_.data[cells[i]] = live[i];
          round_of_[live[i]] = round;
        }
      }
    }
    vm.bulk(addrs, "hash-probe-write");

    // Read-back: winners see their own id.
    vm.bulk(addrs, "hash-probe-readback");
    const std::uint64_t probe_contention = vm.last_contention(addrs.size());
    std::vector<std::uint64_t> next_live;
    std::uint64_t placed = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (table_.data[cells[i]] == live[i]) {
        ++placed;
      } else {
        next_live.push_back(live[i]);
      }
    }
    vm.compute(live.size(), 2.0, "hash-probe-check");

    if (stats != nullptr) {
      HashBuildRound r;
      r.live = live.size();
      r.placed = placed;
      r.max_probe_contention = probe_contention;
      stats->rounds.push_back(r);
    }
    live.swap(next_live);
    ++round;
  }
}

std::uint64_t ParallelHashTable::probe(std::uint64_t key,
                                       std::uint64_t round) const {
  return probe_cell(key, hash_seeds_[round], slots_);
}

std::vector<std::uint64_t> ParallelHashTable::lookup(
    Vm& vm, std::span<const std::uint64_t> queries, std::uint64_t) const {
  const std::uint64_t n = queries.size();
  std::vector<std::uint64_t> result(n, kNotFound);
  std::vector<std::uint64_t> active(n);
  for (std::uint64_t i = 0; i < n; ++i) active[i] = i;

  for (std::uint64_t round = 0; round < rounds_used() && !active.empty();
       ++round) {
    std::vector<std::uint64_t> addrs;
    addrs.reserve(active.size());
    std::vector<std::uint64_t> next_active;
    for (const auto q : active) {
      const std::uint64_t cell = probe(queries[q], round);
      addrs.push_back(table_.region.addr(cell));
      const std::uint64_t id = table_.data[cell];
      if (id != kNotFound && keys_[id] == queries[q]) {
        result[q] = id;  // found
      } else {
        next_active.push_back(q);  // try the next round's hash
      }
    }
    vm.bulk(addrs, "hash-lookup-probe");
    vm.compute(addrs.size(), 2.0, "hash-lookup-check");
    active.swap(next_active);
  }
  return result;
}

}  // namespace dxbsp::algos
