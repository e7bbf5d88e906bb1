// Tests for the memory-system refinements: bank caching [HS93], request
// combining (Ranade-style), and the machine-spec parser.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mem/contention.hpp"
#include "sim/bank_array.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace dxbsp {
namespace {

TEST(BankCache, HitServesFaster) {
  sim::BankArray banks(4, 10, sim::BankCacheConfig{2, 8, 1}, false);
  // Miss: full delay.
  EXPECT_EQ(banks.serve_addr(0, 0, 100), 10u);
  // Same line (addresses 96..103 share line 12): hit, 1-cycle service.
  EXPECT_EQ(banks.serve_addr(0, 20, 101), 21u);
  EXPECT_EQ(banks.cache_hits(), 1u);
  // Different line: miss again.
  EXPECT_EQ(banks.serve_addr(0, 40, 200), 50u);
}

TEST(BankCache, MruEviction) {
  sim::BankArray banks(1, 10, sim::BankCacheConfig{2, 1, 1}, false);
  (void)banks.serve_addr(0, 0, 1);    // lines: [1]
  (void)banks.serve_addr(0, 100, 2);  // lines: [2, 1]
  (void)banks.serve_addr(0, 200, 3);  // evicts 1 -> [3, 2]
  EXPECT_EQ(banks.cache_hits(), 0u);
  (void)banks.serve_addr(0, 300, 2);  // hit
  EXPECT_EQ(banks.cache_hits(), 1u);
  (void)banks.serve_addr(0, 400, 1);  // was evicted: miss
  EXPECT_EQ(banks.cache_hits(), 1u);
}

TEST(BankCache, PerBankIsolation) {
  sim::BankArray banks(2, 10, sim::BankCacheConfig{1, 1, 1}, false);
  (void)banks.serve_addr(0, 0, 7);
  // Same line id at a different bank is a miss (caches are per bank).
  EXPECT_EQ(banks.serve_addr(1, 100, 7), 110u);
  EXPECT_EQ(banks.cache_hits(), 0u);
}

TEST(BankCache, ValidationRejectsBadConfigs) {
  EXPECT_THROW(sim::BankArray(1, 10, sim::BankCacheConfig{2, 0, 1}, false),
               dxbsp::Error);
  EXPECT_THROW(sim::BankArray(1, 10, sim::BankCacheConfig{2, 8, 0}, false),
               dxbsp::Error);
  EXPECT_THROW(sim::BankArray(1, 10, sim::BankCacheConfig{2, 8, 11}, false),
               dxbsp::Error);
}

TEST(Combining, MergesInFlightRequests) {
  sim::BankArray banks(1, 10, {}, /*combining=*/true);
  const std::uint64_t combinable[] = {42};
  banks.reset(combinable);
  const auto first = banks.serve_addr(0, 0, 42);
  EXPECT_EQ(first, 10u);
  // Arrives while the first is in service: rides it, no extra occupancy.
  EXPECT_EQ(banks.serve_addr(0, 5, 42), 10u);
  EXPECT_EQ(banks.combined(), 1u);
  EXPECT_EQ(banks.max_load(), 1u);  // only one real service
  // Arrives after completion: fresh service.
  EXPECT_EQ(banks.serve_addr(0, 20, 42), 30u);
  EXPECT_EQ(banks.combined(), 1u);
}

TEST(Combining, DifferentAddressesDoNotMerge) {
  sim::BankArray banks(1, 10, {}, true);
  const std::uint64_t combinable[] = {1, 2};
  banks.reset(combinable);
  (void)banks.serve_addr(0, 0, 1);
  EXPECT_EQ(banks.serve_addr(0, 0, 2), 20u);  // queued, not merged
  EXPECT_EQ(banks.combined(), 0u);
}

TEST(Combining, OnlySeededAddressesCombine) {
  sim::BankArray banks(1, 10, {}, true);
  (void)banks.serve_addr(0, 0, 7);
  EXPECT_EQ(banks.serve_addr(0, 5, 7), 20u);  // not seeded: queues
  EXPECT_EQ(banks.combined(), 0u);
  const std::uint64_t combinable[] = {7};
  banks.reset(combinable);
  (void)banks.serve_addr(0, 0, 7);
  EXPECT_EQ(banks.serve_addr(0, 5, 7), 10u);
  EXPECT_EQ(banks.combined(), 1u);
  banks.reset();  // a reset drops the seeds with the rest of the op
  (void)banks.serve_addr(0, 0, 7);
  EXPECT_EQ(banks.serve_addr(0, 5, 7), 20u);
  EXPECT_EQ(banks.combined(), 0u);
}

// Seeding only the addresses a stream requests twice or more must serve
// it exactly as seeding every address it requests: an address requested
// once never finds a pending request of its own. Random streams over
// small address spaces (an address lives in one bank, arrivals are
// nondecreasing per bank), with and without a bank cache and slow
// banks, on single- and multi-port arrays.
TEST(Combining, SeedingRepeatedAddressesMatchesSeedingAll) {
  util::SplitMix64 rng(2024);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t nbanks = 1 + rng() % 8;
    const std::uint64_t delay = 1 + rng() % 10;
    const std::uint64_t ports = round % 3 == 0 ? 1 + rng() % 4 : 1;
    const sim::BankCacheConfig cache =
        round % 4 == 1 ? sim::BankCacheConfig{1 + rng() % 3, 1 + rng() % 4, 1}
                       : sim::BankCacheConfig{};
    const std::uint64_t space = 1 + rng() % 64;
    const std::size_t n = 1 + rng() % 400;
    struct Req {
      std::uint64_t bank, arrival, addr, scale;
    };
    std::vector<Req> reqs(n);
    std::vector<std::uint64_t> clock(nbanks, 0);
    std::map<std::uint64_t, std::uint64_t> mult;
    for (Req& r : reqs) {
      r.addr = rng() % space;
      r.bank = r.addr % nbanks;
      clock[r.bank] += rng() % (2 * delay);
      r.arrival = clock[r.bank];
      r.scale = rng() % 8 == 0 ? 1 + rng() % 4 : 1;
      ++mult[r.addr];
    }
    std::vector<std::uint64_t> all;
    std::vector<std::uint64_t> repeated;
    for (const auto& [addr, count] : mult) {
      all.push_back(addr);
      if (count > 1) repeated.push_back(addr);
    }
    sim::BankArray want(nbanks, delay, cache, true, ports);
    sim::BankArray got(nbanks, delay, cache, true, ports);
    want.reset(all);
    got.reset(repeated);
    const std::string what = "round " + std::to_string(round);
    for (std::size_t i = 0; i < n; ++i) {
      const Req& r = reqs[i];
      ASSERT_EQ(got.serve_addr(r.bank, r.arrival, r.addr, r.scale),
                want.serve_addr(r.bank, r.arrival, r.addr, r.scale))
          << what << " request " << i;
      ASSERT_EQ(got.last_start(), want.last_start()) << what;
      ASSERT_EQ(got.last_combined(), want.last_combined()) << what;
    }
    EXPECT_EQ(got.combined(), want.combined()) << what;
    EXPECT_EQ(got.total_served(), want.total_served()) << what;
    EXPECT_EQ(got.max_load(), want.max_load()) << what;
    EXPECT_EQ(got.loads(), want.loads()) << what;
    EXPECT_EQ(got.cache_hits(), want.cache_hits()) << what;
    EXPECT_EQ(got.degraded_cycles(), want.degraded_cycles()) << what;
  }
}

TEST(Machine, CombiningNeutralizesHotLocation) {
  // All-to-one-location scatter: without combining, d*n; with combining,
  // the issue pipeline is the only cost.
  auto cfg = sim::MachineConfig::test_machine();  // p=4, d=4, L=8
  const std::uint64_t n = 4000;
  const std::vector<std::uint64_t> addrs(n, 3);

  sim::Machine plain(cfg);
  const auto slow = plain.scatter(addrs);
  cfg.combine_requests = true;
  sim::Machine combining(cfg);
  const auto fast = combining.scatter(addrs);

  EXPECT_EQ(slow.cycles, 2 * 8 + n * 4);  // bank-serialized
  EXPECT_LT(fast.cycles, slow.cycles / 10);
  EXPECT_GT(fast.combined, n / 2);
}

TEST(Machine, CachingAcceleratesLineLocalTraffic) {
  // A 16-word working set revisited round-robin on a bank-bound machine
  // (d=8, only 4 banks): each bank's traffic stays inside one cached
  // line, so the cached machine is issue-bound instead of bank-bound.
  const auto cached_cfg = sim::MachineConfig::parse(
      "p=2,g=1,L=8,d=8,x=2,cache-lines=1,line-words=16,cached-delay=1");
  const auto plain_cfg = sim::MachineConfig::parse("p=2,g=1,L=8,d=8,x=2");
  sim::Machine cached(cached_cfg);
  sim::Machine plain(plain_cfg);

  std::vector<std::uint64_t> addrs(8000);
  for (std::size_t i = 0; i < addrs.size(); ++i) addrs[i] = i % 16;

  const auto with = cached.scatter(addrs);
  const auto without = plain.scatter(addrs);
  EXPECT_GT(with.cache_hits, addrs.size() * 9 / 10);
  EXPECT_LT(with.cycles, without.cycles / 2);
}

TEST(Machine, ScatterBanksIgnoresAddressFeatures) {
  auto cfg = sim::MachineConfig::test_machine();
  cfg.combine_requests = true;
  sim::Machine m(cfg);
  const std::vector<std::uint64_t> banks(100, 0);
  const auto r = m.scatter_banks(banks);
  EXPECT_EQ(r.combined, 0u);  // no addresses, nothing merged
  EXPECT_EQ(r.max_bank_load, 100u);
}

TEST(ScatterDetailed, TimingIsConsistent) {
  sim::Machine m(sim::MachineConfig::test_machine());
  const auto addrs = workload::k_hot(5000, 500, 1 << 20, 9);
  sim::Machine::RequestTiming timing;
  const auto res = m.scatter_detailed(addrs, timing);

  ASSERT_EQ(timing.issue.size(), addrs.size());
  const auto& cfg = m.config();
  std::uint64_t max_completion = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    // Causality chain: issue -> arrival -> start -> completion.
    EXPECT_EQ(timing.arrival[i], timing.issue[i] + cfg.latency);
    EXPECT_GE(timing.start[i], timing.arrival[i]);
    EXPECT_EQ(timing.completion[i],
              timing.start[i] + cfg.bank_delay + cfg.latency);
    EXPECT_EQ(timing.bank[i], m.mapping().bank_of(addrs[i]));
    max_completion = std::max(max_completion, timing.completion[i]);
  }
  EXPECT_EQ(max_completion, res.cycles);
  // And the cycle count matches the plain scatter exactly.
  EXPECT_EQ(m.scatter(addrs).cycles, res.cycles);
}

TEST(ScatterDetailed, HotBankWaitsGrow) {
  // Needs ample slackness: backpressure would otherwise cap the queue.
  sim::Machine m(sim::MachineConfig::parse("p=4,g=1,L=8,d=4,x=4,S=65536"));
  const std::uint64_t n = 2000, k = 1000;
  const auto addrs = workload::k_hot(n, k, 1 << 20, 10);
  sim::Machine::RequestTiming timing;
  (void)m.scatter_detailed(addrs, timing);
  std::uint64_t max_wait = 0;
  for (std::size_t i = 0; i < n; ++i)
    max_wait = std::max(max_wait, timing.wait(i));
  // The k-th request to the hot bank waits ~ d*k minus its own arrival.
  EXPECT_GE(max_wait, m.config().bank_delay * k / 2);
}

TEST(ConfigParse, PresetWithOverrides) {
  const auto cfg = sim::MachineConfig::parse("j90,p=16,d=20,combine=1");
  EXPECT_EQ(cfg.processors, 16u);
  EXPECT_EQ(cfg.bank_delay, 20u);
  EXPECT_TRUE(cfg.combine_requests);
  EXPECT_EQ(cfg.expansion, sim::MachineConfig::cray_j90().expansion);
}

TEST(ConfigParse, BareKeyValues) {
  const auto cfg = sim::MachineConfig::parse(
      "p=4,g=2,L=10,d=8,x=4,S=128,dist=cyclic,cache-lines=2,line-words=4,"
      "cached-delay=2");
  EXPECT_EQ(cfg.processors, 4u);
  EXPECT_EQ(cfg.gap, 2u);
  EXPECT_EQ(cfg.latency, 10u);
  EXPECT_EQ(cfg.bank_delay, 8u);
  EXPECT_EQ(cfg.expansion, 4u);
  EXPECT_EQ(cfg.slackness, 128u);
  EXPECT_EQ(cfg.distribution, sim::Distribution::kCyclic);
  EXPECT_EQ(cfg.bank_cache_lines, 2u);
  EXPECT_EQ(cfg.cache_line_words, 4u);
  EXPECT_EQ(cfg.cached_delay, 2u);
}

TEST(ConfigParse, Errors) {
  EXPECT_THROW((void)sim::MachineConfig::parse("bogus-preset"),
               dxbsp::Error);
  EXPECT_THROW((void)sim::MachineConfig::parse("j90,unknown=1"),
               dxbsp::Error);
  EXPECT_THROW((void)sim::MachineConfig::parse("j90,p"),
               dxbsp::Error);
  EXPECT_THROW((void)sim::MachineConfig::parse("j90,p=abc"),
               dxbsp::Error);
  EXPECT_THROW((void)sim::MachineConfig::parse("j90,dist=diagonal"),
               dxbsp::Error);
  // validate() runs on the result.
  EXPECT_THROW((void)sim::MachineConfig::parse("j90,p=0"),
               dxbsp::Error);
  EXPECT_THROW((void)sim::MachineConfig::parse("j90,cached-delay=99,cache-lines=1"),
               dxbsp::Error);
}

TEST(ConfigParse, EmptySpecGivesValidDefaults) {
  const auto cfg = sim::MachineConfig::parse("");
  EXPECT_NO_THROW(cfg.validate());
}

TEST(BankCache, RotateBasedMruKeepsHitMissAccountingUnchanged) {
  // The MRU list is maintained with std::find + std::rotate; this pins
  // the exact hit/miss sequence (and completion times) of a 3-line
  // cache under re-reference, so any accounting drift in the rotation
  // fails loudly.
  sim::BankArray banks(1, 10, sim::BankCacheConfig{3, 1, 2}, false);
  EXPECT_EQ(banks.serve_addr(0, 0, 1), 10u);     // miss       [1]
  EXPECT_EQ(banks.serve_addr(0, 20, 2), 30u);    // miss       [2,1]
  EXPECT_EQ(banks.serve_addr(0, 40, 3), 50u);    // miss       [3,2,1]
  EXPECT_EQ(banks.serve_addr(0, 60, 1), 62u);    // hit (tail) [1,3,2]
  EXPECT_EQ(banks.serve_addr(0, 80, 3), 82u);    // hit (mid)  [3,1,2]
  EXPECT_EQ(banks.serve_addr(0, 100, 3), 102u);  // hit (head) [3,1,2]
  EXPECT_EQ(banks.serve_addr(0, 120, 4), 130u);  // miss, evicts 2
  EXPECT_EQ(banks.serve_addr(0, 140, 2), 150u);  // miss (evicted)
  EXPECT_EQ(banks.cache_hits(), 3u);
  EXPECT_EQ(banks.total_served(), 8u);
}

TEST(RequestTiming, UnservedSentinelMarksFailedRequests) {
  // Requests the fault path fails (retry budget 0) must keep kUnserved
  // in every timing slot — not a 0 that reads as "completed at cycle 0".
  auto cfg = sim::MachineConfig::test_machine();
  sim::Machine m(cfg);
  fault::FaultConfig fc;
  fc.seed = 3;
  fc.drop_rate = 0.2;
  fc.retry.max_retries = 0;
  m.inject(std::make_shared<fault::FaultPlan>(fc, cfg.banks()));

  const auto addrs = workload::uniform_random(2000, 1 << 16, 77);
  sim::Machine::RequestTiming t;
  std::uint64_t reported_failed = 0;
  try {
    (void)m.scatter_detailed(addrs, t);
    FAIL() << "expected DegradedError";
  } catch (const fault::DegradedError& e) {
    reported_failed = e.result().failed_requests;
  }
  ASSERT_GT(reported_failed, 0u);

  std::uint64_t unserved = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (!t.served(i)) {
      ++unserved;
      // All five slots carry the sentinel together.
      EXPECT_EQ(t.issue[i], sim::Machine::RequestTiming::kUnserved);
      EXPECT_EQ(t.arrival[i], sim::Machine::RequestTiming::kUnserved);
      EXPECT_EQ(t.start[i], sim::Machine::RequestTiming::kUnserved);
      EXPECT_EQ(t.bank[i], sim::Machine::RequestTiming::kUnserved);
    } else {
      // Served slots are fully overwritten and internally consistent.
      EXPECT_LT(t.bank[i], cfg.banks());
      EXPECT_LE(t.issue[i], t.arrival[i]);
      EXPECT_LE(t.arrival[i], t.start[i]);
      EXPECT_LT(t.start[i], t.completion[i]);
    }
  }
  EXPECT_EQ(unserved, reported_failed);
}

}  // namespace
}  // namespace dxbsp
