#include "algos/connected_components.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "mem/contention.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dxbsp::algos {

namespace {
/// Hottest label across both endpoint gathers of one iteration; a stats
/// field only, so callers compute it only when CcStats were asked for.
std::uint64_t label_contention(const std::vector<std::uint64_t>& pu,
                               const std::vector<std::uint64_t>& pv) {
  std::vector<std::uint64_t> both;
  both.reserve(pu.size() + pv.size());
  both.insert(both.end(), pu.begin(), pu.end());
  both.insert(both.end(), pv.begin(), pv.end());
  return mem::analyze_locations(both).max_contention;
}
}  // namespace

std::vector<std::uint32_t> connected_components(Vm& vm,
                                                const workload::Graph& g,
                                                CcStats* stats,
                                                CcOptions options) {
  g.validate();
  const std::uint64_t n = g.n;
  if (n == 0) return {};

  auto parent = vm.make_array<std::uint64_t>(n);
  for (std::uint64_t v = 0; v < n; ++v) parent.data[v] = v;
  vm.contiguous(parent.region, n, 1.0, "cc-init");

  // Live edge list (contracted as components merge), with a simulated
  // region backing the packing sweeps.
  const Region edge_region = vm.reserve(std::max<std::uint64_t>(g.m(), 1));
  std::vector<std::uint64_t> eu, ev;
  eu.reserve(g.m());
  ev.reserve(g.m());
  for (const auto& [u, v] : g.edges) {
    eu.push_back(u);
    ev.push_back(v);
  }

  const std::uint64_t max_iters =
      (options.single_shortcut ? 12 : 4) * (util::log2_ceil(n + 1) + 2) + 32;
  std::uint64_t iter = 0;

  while (!eu.empty()) {
    if (++iter > max_iters)
      throw std::logic_error("connected_components: failed to converge");
    CcIteration it;
    it.live_edges = eu.size();

    // (1) Gather both endpoint labels. The forest is flat, so parent[u]
    // is u's component label.
    std::vector<std::uint64_t> pu, pv;
    vm.gather(pu, parent, eu, "cc-gather-labels");
    vm.gather(pv, parent, ev, "cc-gather-labels");
    if (options.keep_traces && stats != nullptr) {
      std::vector<std::uint64_t> trace;
      trace.reserve(eu.size() + ev.size());
      trace.insert(trace.end(), eu.begin(), eu.end());
      trace.insert(trace.end(), ev.begin(), ev.end());
      stats->gather_traces.push_back(std::move(trace));
    }
    if (stats != nullptr) it.gather_contention = label_contention(pu, pv);

    // (2) Hook: the larger label's root adopts the smaller label.
    // Arbitrary winner: later edges overwrite earlier ones.
    std::vector<std::uint64_t> hook_idx, hook_val;
    for (std::size_t e = 0; e < eu.size(); ++e) {
      if (pu[e] == pv[e]) continue;
      const std::uint64_t hi = std::max(pu[e], pv[e]);
      const std::uint64_t lo = std::min(pu[e], pv[e]);
      hook_idx.push_back(hi);
      hook_val.push_back(lo);
    }
    it.hooks = hook_idx.size();
    if (it.hooks == 0) {
      // Every remaining edge is internal; contract them away and finish.
      eu.clear();
      ev.clear();
      if (stats != nullptr) stats->iterations.push_back(it);
      break;
    }
    // Monotone hook: adopt the smaller label only if it improves the
    // slot (parent values strictly decrease, so the forest stays acyclic
    // and the single-shortcut variant provably terminates; on a flat
    // forest this is identical to the unconditional write).
    {
      std::vector<std::uint64_t> addrs(hook_idx.size());
      for (std::size_t h = 0; h < hook_idx.size(); ++h) {
        addrs[h] = parent.region.addr(hook_idx[h]);
        if (hook_val[h] < parent.data[hook_idx[h]])
          parent.data[hook_idx[h]] = hook_val[h];
      }
      vm.bulk(addrs, "cc-hook-scatter");
    }
    it.hook_contention = vm.last_contention(hook_idx.size());

    // (3) Shortcut: pointer jumping until the forest is flat again, or
    // just one round in the single-shortcut variant.
    for (;;) {
      ++it.shortcut_rounds;
      std::vector<std::uint64_t> gp;
      vm.gather(gp, parent, parent.data, "cc-shortcut-gather");
      bool changed = false;
      for (std::uint64_t v = 0; v < n; ++v) {
        if (gp[v] != parent.data[v]) changed = true;
      }
      vm.contiguous(parent.region, n, 1.0, "cc-shortcut-write");
      parent.data = std::move(gp);
      if (!changed || options.single_shortcut) break;
    }

    // (4) Contract: keep only edges whose endpoints now differ. (We use
    // this iteration's pre-hook labels where still valid; a fresh pair of
    // gathers keeps it exact.)
    std::vector<std::uint64_t> nu, nv;
    vm.gather(pu, parent, eu, "cc-contract-gather");
    vm.gather(pv, parent, ev, "cc-contract-gather");
    for (std::size_t e = 0; e < eu.size(); ++e) {
      if (pu[e] != pv[e]) {
        nu.push_back(eu[e]);
        nv.push_back(ev[e]);
      }
    }
    vm.contiguous(edge_region, eu.size(), 2.0, "cc-contract-pack");
    eu.swap(nu);
    ev.swap(nv);

    if (stats != nullptr) {
      std::unordered_set<std::uint64_t> roots(parent.data.begin(),
                                              parent.data.end());
      it.components = roots.size();
      stats->iterations.push_back(it);
    }
  }

  // Final flatten (no-op unless the loop exited via the hooks==0 branch
  // before shortcutting).
  for (;;) {
    bool changed = false;
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint64_t gp = parent.data[parent.data[v]];
      if (gp != parent.data[v]) {
        parent.data[v] = gp;
        changed = true;
      }
    }
    if (!changed) break;
  }

  std::vector<std::uint32_t> labels(n);
  for (std::uint64_t v = 0; v < n; ++v)
    labels[v] = static_cast<std::uint32_t>(parent.data[v]);
  return labels;
}

std::vector<std::uint32_t> connected_components_random_mate(
    Vm& vm, const workload::Graph& g, std::uint64_t seed, CcStats* stats) {
  g.validate();
  const std::uint64_t n = g.n;
  if (n == 0) return {};

  auto parent = vm.make_array<std::uint64_t>(n);
  for (std::uint64_t v = 0; v < n; ++v) parent.data[v] = v;
  vm.contiguous(parent.region, n, 1.0, "rm-init");

  const Region edge_region = vm.reserve(std::max<std::uint64_t>(g.m(), 1));
  std::vector<std::uint64_t> eu, ev;
  eu.reserve(g.m());
  ev.reserve(g.m());
  for (const auto& [u, v] : g.edges) {
    eu.push_back(u);
    ev.push_back(v);
  }

  util::Xoshiro256 rng(util::substream(seed, 90));
  // Random mate merges each live edge with probability 1/4 per round;
  // 8 log n + 64 rounds fail with negligible probability, and a failure
  // here is a logic error worth hearing about.
  const std::uint64_t max_iters = 8 * (util::log2_ceil(n + 1) + 2) + 64;
  std::uint64_t iter = 0;
  std::vector<std::uint8_t> coin(n);

  while (!eu.empty()) {
    if (++iter > max_iters)
      throw std::logic_error(
          "connected_components_random_mate: failed to converge");
    CcIteration it;
    it.live_edges = eu.size();

    // Coin flips for every vertex (only roots' coins matter).
    for (std::uint64_t v = 0; v < n; ++v)
      coin[v] = static_cast<std::uint8_t>(rng() & 1);
    vm.compute(n, 2.0, "rm-coins");

    std::vector<std::uint64_t> pu, pv;
    vm.gather(pu, parent, eu, "rm-gather-labels");
    vm.gather(pv, parent, ev, "rm-gather-labels");
    if (stats != nullptr) it.gather_contention = label_contention(pu, pv);

    // Hook tail roots under head roots (arbitrary winner).
    std::vector<std::uint64_t> hook_idx, hook_val;
    std::vector<std::uint64_t> nu, nv;
    for (std::size_t e = 0; e < eu.size(); ++e) {
      if (pu[e] == pv[e]) continue;  // contracted away below
      nu.push_back(eu[e]);
      nv.push_back(ev[e]);
      const bool hu = coin[pu[e]] != 0, hv = coin[pv[e]] != 0;
      if (hu && !hv) {
        hook_idx.push_back(pv[e]);
        hook_val.push_back(pu[e]);
      } else if (hv && !hu) {
        hook_idx.push_back(pu[e]);
        hook_val.push_back(pv[e]);
      }
    }
    it.hooks = hook_idx.size();
    vm.contiguous(edge_region, eu.size(), 2.0, "rm-contract-pack");
    eu.swap(nu);
    ev.swap(nv);
    if (!hook_idx.empty()) {
      vm.scatter(parent, hook_idx, hook_val, "rm-hook-scatter");
      it.hook_contention = vm.last_contention(hook_idx.size());

      // Tails' children are now depth 2; one jump flattens the forest.
      std::vector<std::uint64_t> gp;
      vm.gather(gp, parent, parent.data, "rm-shortcut-gather");
      vm.contiguous(parent.region, n, 1.0, "rm-shortcut-write");
      parent.data = std::move(gp);
      it.shortcut_rounds = 1;
    }

    if (stats != nullptr) {
      std::unordered_set<std::uint64_t> roots(parent.data.begin(),
                                              parent.data.end());
      it.components = roots.size();
      stats->iterations.push_back(it);
    }
  }

  std::vector<std::uint32_t> labels(n);
  for (std::uint64_t v = 0; v < n; ++v)
    labels[v] = static_cast<std::uint32_t>(parent.data[v]);
  return labels;
}

bool same_partition(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<std::uint32_t, std::uint32_t> a2b, b2a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto [ia, oka] = a2b.try_emplace(a[v], b[v]);
    if (!oka && ia->second != b[v]) return false;
    const auto [ib, okb] = b2a.try_emplace(b[v], a[v]);
    if (!okb && ib->second != a[v]) return false;
  }
  return true;
}

}  // namespace dxbsp::algos
