// Differential tests for the event engines: every execution strategy,
// pinned with EngineSelector::force(), AND the unforced selector must
// produce BIT-IDENTICAL results to the reference priority_queue loop —
// BulkResult field for field, RequestTiming slot for slot, trace event
// for event — across machine features, distributions, fault scenarios
// and slackness regimes (docs/performance.md). SoA-kernel-specific and
// selector-log scenarios live in tests/engine_select_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "engine_pins.hpp"
#include "fault/fault_plan.hpp"
#include "obs/selector.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

namespace dxbsp {
namespace {

void expect_same_bulk(const sim::BulkResult& a, const sim::BulkResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.max_bank_load, b.max_bank_load);
  EXPECT_EQ(a.max_proc_requests, b.max_proc_requests);
  EXPECT_EQ(a.last_issue, b.last_issue);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.port_conflicts, b.port_conflicts);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.max_proc_miss, b.max_proc_miss);
  EXPECT_EQ(a.combined, b.combined);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.nacks, b.nacks);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  EXPECT_EQ(a.max_location_contention, b.max_location_contention);
  // The access profile is computed before dispatch, so no engine may
  // disturb it.
  EXPECT_EQ(a.distinct_locations, b.distinct_locations);
  EXPECT_EQ(a.mapped_bank_load, b.mapped_bank_load);
  EXPECT_DOUBLE_EQ(a.bank_utilization, b.bank_utilization);
  // Attribution is part of the bit-identical contract: same critical
  // event, same decomposition, same bank-load distribution.
  EXPECT_EQ(a.breakdown, b.breakdown);
  EXPECT_EQ(a.bank_sketch, b.bank_sketch);
}

void expect_same_timing(const sim::Machine::RequestTiming& a,
                        const sim::Machine::RequestTiming& b) {
  EXPECT_EQ(a.issue, b.issue);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.bank, b.bank);
}

void expect_same_trace(const obs::TraceRing& a, const obs::TraceRing& b) {
  const auto ea = a.drain();
  const auto eb = b.drain();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].ts, eb[i].ts) << "event " << i;
    EXPECT_EQ(ea[i].dur, eb[i].dur) << "event " << i;
    EXPECT_EQ(ea[i].a, eb[i].a) << "event " << i;
    EXPECT_EQ(ea[i].b, eb[i].b) << "event " << i;
    EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
  }
}

void expect_same_degraded(const sim::FaultyBulk& a, const sim::FaultyBulk& b) {
  ASSERT_EQ(a.degraded.has_value(), b.degraded.has_value());
  if (!a.degraded) return;
  EXPECT_EQ(a.degraded->failed_requests, b.degraded->failed_requests);
  EXPECT_EQ(a.degraded->first_failed_element,
            b.degraded->first_failed_element);
  EXPECT_EQ(a.degraded->attempts, b.degraded->attempts);
  EXPECT_EQ(a.degraded->reason, b.degraded->reason);
}

using testing_pins::kPins;
using testing_pins::pin_name;

/// Runs `op` on every machine of `machines` (one per engine pin,
/// testing_pins::kPins order) and asserts each result is byte-identical
/// to the forced kReference oracle's, machines.front(). Every machine
/// runs `op` twice, once with an exact tracer and once untraced: the
/// traced run diffs the fully-traced loops event for event, the
/// untraced one the observer-free specializations and the SoA kernel a
/// tracer disqualifies — and hits warm scratch-arena buffers. Returns
/// whether the oracle's run degraded.
template <typename Op>
bool diff_pins(const std::vector<std::unique_ptr<sim::Machine>>& machines,
               const Op& op) {
  sim::Machine& ref = *machines.front();
  bool degraded = false;
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    obs::TraceRing ref_ring(1 << 18);
    if (traced) ref.set_tracer(&ref_ring);
    const sim::FaultyBulk want = op(ref);
    ref.set_tracer(nullptr);
    degraded = want.degraded.has_value();
    for (std::size_t i = 1; i < machines.size(); ++i) {
      SCOPED_TRACE(pin_name(kPins[i]));
      sim::Machine& m = *machines[i];
      obs::TraceRing ring(1 << 18);
      if (traced) m.set_tracer(&ring);
      const sim::FaultyBulk got = op(m);
      m.set_tracer(nullptr);
      expect_same_bulk(got.bulk, want.bulk);
      expect_same_degraded(got, want);
      if (traced) expect_same_trace(ring, ref_ring);
    }
  }
  return degraded;
}

/// Runs the same workload on one otherwise-identical machine per engine
/// pin through diff_pins, then diffs scatter_detailed's per-request
/// timing the same way.
void check_equivalent(sim::MachineConfig cfg,
                      const std::vector<std::uint64_t>& addrs,
                      std::shared_ptr<const fault::FaultPlan> plan = nullptr,
                      bool with_timing = true) {
  const auto machines = testing_pins::pinned_machines(
      [&] { return std::make_unique<sim::Machine>(cfg); });
  if (plan)
    for (const auto& m : machines) m->inject(plan);
  sim::Machine& ref = *machines.front();
  const bool degraded = diff_pins(
      machines, [&](sim::Machine& m) { return m.scatter_faulty(addrs); });

  if (!with_timing) return;
  // Degraded runs throw from scatter_detailed but must still leave
  // identical timing records (kUnserved in the failed slots).
  const auto detailed = [&](sim::Machine& m, sim::Machine::RequestTiming& t)
      -> std::optional<sim::BulkResult> {
    try {
      return m.scatter_detailed(addrs, t);
    } catch (const fault::DegradedError&) {
      return std::nullopt;
    }
  };
  sim::Machine::RequestTiming want_t;
  const auto want = detailed(ref, want_t);
  EXPECT_EQ(want.has_value(), !degraded);
  for (std::size_t i = 1; i < machines.size(); ++i) {
    SCOPED_TRACE(pin_name(kPins[i]));
    sim::Machine::RequestTiming t;
    const auto got = detailed(*machines[i], t);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) expect_same_bulk(*got, *want);
    expect_same_timing(t, want_t);
  }
}

sim::MachineConfig base_config(sim::Distribution dist) {
  auto cfg = sim::MachineConfig::test_machine();  // p=4, d=4, L=8, x=4
  cfg.distribution = dist;
  return cfg;
}

std::shared_ptr<const fault::FaultPlan> drop_plan(std::uint64_t banks,
                                                  double drop,
                                                  std::uint64_t max_retries) {
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.drop_rate = drop;
  fc.retry.max_retries = max_retries;
  fc.retry.backoff_base = 16;
  fc.retry.backoff_cap = 8192;  // beyond the wheel: exercises overflow
  fc.retry.jitter = 8;
  return std::make_shared<fault::FaultPlan>(fc, banks);
}

std::shared_ptr<const fault::FaultPlan> chaos_plan(std::uint64_t banks) {
  fault::FaultConfig fc;
  fc.seed = 5;
  fc.slow_fraction = 0.25;
  fc.slow_multiplier = 4;
  fc.dead_fraction = 0.125;
  fc.dead_onset = 200;
  fc.drop_rate = 0.02;
  return std::make_shared<fault::FaultPlan>(fc, banks);
}

TEST(EngineEquivalence, UniformRandomBothDistributions) {
  const auto addrs = workload::uniform_random(20000, 1 << 20, 42);
  check_equivalent(base_config(sim::Distribution::kBlock), addrs);
  check_equivalent(base_config(sim::Distribution::kCyclic), addrs);
}

TEST(EngineEquivalence, UnevenTailRequestCount) {
  // n not divisible by p: processors own unequal counts, so the dense
  // fast path's per-processor bounds and the ring offsets differ.
  const auto addrs = workload::uniform_random(10007, 1 << 20, 7);
  check_equivalent(base_config(sim::Distribution::kBlock), addrs);
  check_equivalent(base_config(sim::Distribution::kCyclic), addrs);
}

TEST(EngineEquivalence, HotSpotTrafficTightSlackness) {
  // A hot location plus S smaller than the per-processor count: the
  // completion-window gate binds, forcing the general calendar path
  // (stalls, non-monotone heads) instead of the dense one.
  auto addrs = workload::k_hot(8000, 2000, 1 << 20, 3);
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    auto cfg = base_config(dist);
    cfg.slackness = 16;
    check_equivalent(cfg, addrs);
  }
}

TEST(EngineEquivalence, CombiningMachine) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.combine_requests = true;
  check_equivalent(cfg, workload::k_hot(6000, 3000, 1 << 16, 9));
}

TEST(EngineEquivalence, CombiningMachineManyPartitions) {
  // 2^17 requests: the location count runs over many partitions, so the
  // repeated addresses that seed the combining table are collected
  // across all of them (the hot spot and the random addresses that
  // repeat in a 2^18-word space).
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.combine_requests = true;
  cfg.slackness = 64;
  const std::uint64_t n = std::uint64_t{1} << 17;
  const auto addrs = workload::k_hot(n, n / 32, 1 << 18, 21);
  check_equivalent(cfg, addrs);
  sim::Machine m(cfg);
  EXPECT_GT(m.scatter(addrs).combined, n / 64);
}

TEST(EngineEquivalence, CachingMachine) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.bank_cache_lines = 4;
  cfg.cache_line_words = 8;
  cfg.cached_delay = 1;
  check_equivalent(cfg, workload::strided(8000, 1, 0));
}

TEST(EngineEquivalence, CacheTierLruWriteBack) {
  // Processor-cache tier (docs/cache.md): LRU write-back dirties lines
  // and fires dirty-eviction writebacks into the bank pipeline — both
  // engines must agree on every hit, miss, victim and trace event.
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 64;
  cfg.cache.line_words = 8;
  cfg.cache.assoc = 8;
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::k_hot(8000, 2000, 1 << 14, 3));
}

TEST(EngineEquivalence, CacheTierFifoWriteThroughDirectMapped) {
  // One way per set: LRU evicts the line FIFO would, so this is still
  // the FIFO direct-mapped scenario.
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.cache.capacity = 32;
  cfg.cache.line_words = 4;
  cfg.cache.assoc = 1;  // direct-mapped: conflict misses galore
  cfg.cache.write = cache::WritePolicy::kThrough;
  check_equivalent(cfg, workload::strided(8000, 1, 0));
}

TEST(EngineEquivalence, CacheTierFullyAssociative) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 16;
  cfg.cache.assoc = 0;  // fully associative
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 12, 41));
}

TEST(EngineEquivalence, CacheTierScratchpad) {
  // A small LRU tier in front of a k-hot stream, run twice on the same
  // machines: the second round must cold-start identically everywhere.
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 8;
  cfg.cache.line_words = 8;

  const auto addrs = workload::k_hot(6000, 3000, 1 << 13, 9);
  const auto machines = testing_pins::pinned_machines(
      [&] { return std::make_unique<sim::Machine>(cfg); });
  for (int round = 0; round < 2; ++round) {
    const auto want = machines.front()->scatter(addrs);
    for (std::size_t i = 1; i < machines.size(); ++i) {
      SCOPED_TRACE(pin_name(kPins[i]));
      expect_same_bulk(machines[i]->scatter(addrs), want);
    }
  }
}

TEST(EngineEquivalence, CacheTierWithFaults) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 32;
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::k_hot(6000, 1500, 1 << 14, 43),
                   chaos_plan(cfg.banks()));
}

TEST(EngineEquivalence, CacheTierTightSlackness) {
  // Window gate binding + cache hits completing ahead of misses: the
  // general calendar path with the tier in front.
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.slackness = 16;
  cfg.cache.capacity = 64;
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::k_hot(8000, 2000, 1 << 14, 47));
}

TEST(EngineEquivalence, MultiPortBanks) {
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.bank_ports = 2;
  check_equivalent(cfg, workload::uniform_random(8000, 1 << 18, 13));
}

TEST(EngineEquivalence, SectionedNetwork) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.network_sections = 4;
  cfg.section_period = 2;
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 18, 17));
}

TEST(EngineEquivalence, ButterflyNetwork) {
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.butterfly_network = true;
  cfg.link_period = 1;
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 18, 19));
}

TEST(EngineEquivalence, FaultyDropsWithRetries) {
  // Recoverable drops: retry backoffs land far ahead of the wheel
  // horizon, exercising the calendar queue's overflow heap.
  auto cfg = base_config(sim::Distribution::kBlock);
  check_equivalent(cfg, workload::uniform_random(8000, 1 << 18, 23),
                   drop_plan(cfg.banks(), 0.05, 8));
}

TEST(EngineEquivalence, FaultyExhaustedBudgetDegrades) {
  // Unrecoverable drops (budget 0): the degraded epilogue, failed-count
  // bookkeeping and kUnserved timing slots must match exactly.
  auto cfg = base_config(sim::Distribution::kCyclic);
  check_equivalent(cfg, workload::uniform_random(4000, 1 << 18, 29),
                   drop_plan(cfg.banks(), 0.1, 0));
}

TEST(EngineEquivalence, FaultyChaosSlowDeadAndDrops) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.slackness = 64;  // window gate + faults together
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 18, 31),
                   chaos_plan(cfg.banks()));
}

TEST(EngineEquivalence, ScatterBanksPath) {
  // Bank ids supplied directly (mapping bypassed, serve() not
  // serve_addr(), the cache tier bypassed): every pin on every machine
  // below, traced and untraced. Multi-port banks send the SoA pin down
  // its per-element walk, the cache tier is bypassed on the dense and
  // scheduled paths, and the fault plans drive NACK/retry and bank-id
  // failover. Also covers every engine's id validation.
  const auto base = base_config(sim::Distribution::kBlock);
  std::vector<std::uint64_t> banks(5000);
  for (std::size_t i = 0; i < banks.size(); ++i)
    banks[i] = (i * 7 + i / 13) % base.banks();

  auto ported = base;
  ported.bank_ports = 2;
  auto tiered = base;
  tiered.cache.capacity = 64;
  tiered.cache.write = cache::WritePolicy::kBack;
  auto sectioned = base;
  sectioned.network_sections = 4;
  sectioned.section_period = 2;
  struct Case {
    const char* name;
    sim::MachineConfig cfg;
    std::shared_ptr<const fault::FaultPlan> plan;
  };
  const Case cases[] = {
      {"base", base, nullptr},
      {"bank_ports=2", ported, nullptr},
      {"cache tier", tiered, nullptr},
      {"sectioned network", sectioned, nullptr},
      {"drop_plan", base, drop_plan(base.banks(), 0.05, 8)},
      {"chaos_plan", base, chaos_plan(base.banks())},
  };
  const auto scatter_banks = [&](sim::Machine& m) {
    try {
      return sim::FaultyBulk{m.scatter_banks(banks), std::nullopt};
    } catch (const fault::DegradedError& e) {
      return sim::FaultyBulk{{}, e.result()};
    }
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto machines = testing_pins::pinned_machines(
        [&] { return std::make_unique<sim::Machine>(c.cfg); });
    if (c.plan)
      for (const auto& m : machines) m->inject(c.plan);
    diff_pins(machines, scatter_banks);
  }

  banks[123] = base.banks();  // out of range: every engine must reject
  const auto machines = testing_pins::pinned_machines(
      [&] { return std::make_unique<sim::Machine>(base); });
  for (const auto& m : machines)
    EXPECT_THROW((void)m->scatter_banks(banks), dxbsp::Error);
}

TEST(EngineEquivalence, GapAndLatencyVariants) {
  for (std::uint64_t g : {1ULL, 3ULL}) {
    for (std::uint64_t L : {0ULL, 8ULL, 100ULL}) {
      auto cfg = base_config(sim::Distribution::kBlock);
      cfg.gap = g;
      cfg.latency = L;
      check_equivalent(cfg, workload::uniform_random(4000, 1 << 18, 37),
                       nullptr, /*with_timing=*/false);
    }
  }
}

TEST(EngineEquivalence, UnforcedMachineRowsAreNotForced) {
  // A fresh Machine is unforced: the selector decides every op, and the
  // selector log says so.
  sim::Machine m(base_config(sim::Distribution::kBlock));
  EXPECT_FALSE(m.selector().forced().has_value());
  obs::SelectorLog log;
  m.set_selector(&log);
  const auto addrs = workload::uniform_random(4000, 1 << 18, 37);
  (void)m.scatter(addrs);
  (void)m.scatter(addrs);
  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_FALSE(row.forced);
    EXPECT_FALSE(row.fallback);
  }
}

}  // namespace
}  // namespace dxbsp
