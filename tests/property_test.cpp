// Randomized cross-checks (property tests): invariants that must hold
// for arbitrary machine configurations, patterns and inputs — the
// relationships that tie the simulator, the model and the algorithms
// together regardless of parameter choices.

#include <gtest/gtest.h>

#include <algorithm>

#include "algos/radix_sort.hpp"
#include "algos/random_permutation.hpp"
#include "algos/vm.hpp"
#include "core/predictor.hpp"
#include "mem/contention.hpp"
#include "prediction_print.hpp"
#include "qrqw/emulation.hpp"
#include "qrqw/program.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace dxbsp {
namespace {

sim::MachineConfig random_config(util::Xoshiro256& rng) {
  sim::MachineConfig cfg;
  cfg.processors = 1ULL << rng.below(5);          // 1..16
  cfg.gap = 1 + rng.below(3);                     // 1..3
  cfg.latency = rng.below(64);                    // 0..63
  cfg.bank_delay = 1 + rng.below(20);             // 1..20
  cfg.expansion = 1ULL << rng.below(7);           // 1..64
  cfg.slackness = 1ULL << (3 + rng.below(12));    // 8..64K
  cfg.name = "fuzz";
  return cfg;
}

std::vector<std::uint64_t> random_pattern(util::Xoshiro256& rng,
                                          std::uint64_t n) {
  switch (rng.below(4)) {
    case 0:
      return workload::uniform_random(n, 1 + rng.below(1ULL << 24), rng());
    case 1:
      return workload::k_hot(n, 1 + rng.below(n), 1ULL << 26, rng());
    case 2:
      return workload::strided(n, 1 + rng.below(512), rng.below(1024));
    default:
      return workload::cyclic(n, 1 + rng.below(n));
  }
}

TEST(SimulatorProperties, LowerBoundsAndConservationHoldForRandomRuns) {
  util::Xoshiro256 rng(20240704);
  for (int trial = 0; trial < 40; ++trial) {
    const auto cfg = random_config(rng);
    sim::Machine machine(cfg);
    const std::uint64_t n = 256 + rng.below(1 << 14);
    const auto addrs = random_pattern(rng, n);
    const auto res = machine.scatter(addrs);

    // Conservation: every request accounted.
    ASSERT_EQ(res.n, addrs.size());
    // Issue-pipeline lower bound.
    ASSERT_GE(res.cycles,
              cfg.gap * (res.max_proc_requests - 1) + cfg.bank_delay);
    // Bank-serialization lower bound (+ wire time).
    ASSERT_GE(res.cycles + 0u, cfg.bank_delay * res.max_bank_load);
    // Location contention forces a bank-load floor.
    const auto lc = mem::analyze_locations(addrs);
    ASSERT_GE(res.max_bank_load, lc.max_contention);
    // The op's own k is the same count, taken independently.
    ASSERT_EQ(res.max_location_contention, lc.max_contention);
    // Trivial upper bound: complete serialization through one bank.
    ASSERT_LE(res.cycles, 2 * cfg.latency + cfg.bank_delay * n +
                              cfg.gap * n + 2 * cfg.latency * n);
    // Utilization is a fraction.
    ASSERT_GT(res.bank_utilization, 0.0);
    ASSERT_LE(res.bank_utilization, 1.0 + 1e-9);
    // Determinism.
    ASSERT_EQ(machine.scatter(addrs).cycles, res.cycles);
  }
}

TEST(ModelProperties, DxBspBracketsSimulatorForRandomRuns) {
  util::Xoshiro256 rng(77001);
  int checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto cfg = random_config(rng);
    // The mapped prediction needs ample slackness to hold tightly (the
    // paper's S = 64K setting); tiny windows serialize on latency.
    cfg.slackness = 64 * 1024;
    sim::Machine machine(cfg);
    const std::uint64_t n = 4096 + rng.below(1 << 15);
    const auto addrs = random_pattern(rng, n);
    const auto res = machine.scatter(addrs);
    const auto pred = core::predict_scatter(addrs, cfg, &machine.mapping());
    // The profile the simulated op returned predicts the same, field for
    // field, as mapping and counting the addresses again.
    EXPECT_EQ(core::predict(res, cfg), pred) << "trial " << trial;
    // Only check when bandwidth terms dominate the latency terms (the
    // model's stated regime; with L dominating, both are trivially 2L).
    if (res.cycles < 8 * cfg.latency) continue;
    ++checked;
    const double ratio =
        static_cast<double>(pred.dxbsp_mapped) / static_cast<double>(res.cycles);
    EXPECT_GT(ratio, 0.45) << "trial " << trial;
    EXPECT_LT(ratio, 2.2) << "trial " << trial;
  }
  EXPECT_GE(checked, 15);  // the sweep must actually exercise the regime
}

TEST(SortProperties, RadixSortMatchesStdStableSortForRandomWidths) {
  util::Xoshiro256 rng(5150);
  for (int trial = 0; trial < 15; ++trial) {
    const unsigned key_bits = 1 + static_cast<unsigned>(rng.below(32));
    const unsigned radix_bits = 1 + static_cast<unsigned>(rng.below(12));
    const std::uint64_t n = 1 + rng.below(3000);
    const auto keys =
        workload::uniform_random(n, 1ULL << key_bits, rng());

    algos::Vm vm(sim::MachineConfig::test_machine());
    const auto res = algos::radix_sort(vm, keys, key_bits, radix_bits);

    std::vector<std::uint64_t> expect(keys.begin(), keys.end());
    std::stable_sort(expect.begin(), expect.end());
    ASSERT_EQ(res.sorted_keys, expect)
        << "key_bits=" << key_bits << " radix_bits=" << radix_bits;
    ASSERT_TRUE(algos::is_permutation_of_iota(res.rank));
  }
}

TEST(EmulationProperties, BoundHoldsForRandomStepsAndMachines) {
  util::Xoshiro256 rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    auto cfg = random_config(rng);
    cfg.slackness = 64 * 1024;
    const std::uint64_t n = 1024 + rng.below(1 << 14);
    const std::uint64_t k = 1 + rng.below(n / 2);
    const auto step = qrqw::synthetic_step(n, k, 1ULL << 26, n, rng());
    qrqw::EmulationEngine eng(cfg, rng());
    const auto r = eng.emulate_step(step);
    EXPECT_LE(static_cast<double>(r.sim_cycles), r.bound)
        << "trial " << trial << " p=" << cfg.processors
        << " d=" << cfg.bank_delay << " x=" << cfg.expansion << " k=" << k;
  }
}

TEST(MappingProperties, HashedLoadsStayNearLocationFloor) {
  // For any pattern, the hashed max bank load must sit within a modest
  // factor of the information-theoretic floor max(k, n/B) w.h.p.
  util::Xoshiro256 rng(99123);
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint64_t banks = 1ULL << (3 + rng.below(7));
    const std::uint64_t n = 2048 + rng.below(1 << 15);
    const auto addrs = random_pattern(rng, n);
    util::Xoshiro256 hash_rng(rng());
    const mem::HashedMapping mapping(banks, mem::HashDegree::kCubic,
                                     hash_rng);
    const auto loads = mem::analyze_banks(addrs, mapping);
    const auto floor = mem::location_forced_max_load(addrs, banks);
    ASSERT_GE(loads.max_load, floor);
    // The balls-in-bins tail multiplies the floor by up to
    // ~ln B / ln ln B when the distinct-location count matches the bank
    // count; 6x + slack covers it with margin.
    EXPECT_LE(loads.max_load, 6 * floor + 64)
        << "banks=" << banks << " n=" << n;
  }
}

}  // namespace
}  // namespace dxbsp
