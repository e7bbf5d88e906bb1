// The per-processor cache tier (src/cache/, docs/cache.md): config
// validation and parsing, deterministic LRU tag-state semantics per
// write policy, machine integration (capacity 0 must be
// bit-identical to no cache at all; with caching on, the seven-term
// attribution identity must hold exactly), the hit-ratio-corrected
// predictor, and the drift-band interplay — an uncorrected flat
// prediction of a cache-accelerated run must be flagged as drift, the
// corrected one must sit inside the paper's ±25% band.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "cache/tier.hpp"
#include "core/cost.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/error.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

namespace dxbsp {
namespace {

// --------------------------------------------------------------- config

void expect_config_error(const std::string& spec, const std::string& needle) {
  try {
    (void)sim::MachineConfig::parse(spec);
    FAIL() << "accepted '" << spec << "'";
  } catch (const Error& e) {
    EXPECT_TRUE(e.code() == ErrorCode::kConfig ||
                e.code() == ErrorCode::kParse)
        << spec << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << spec << " raised '" << e.what() << "', expected to name '"
        << needle << "'";
  }
}

// A key the parser does not know is a kParse error that names it.
void expect_unknown_key(const std::string& spec, const std::string& key) {
  try {
    (void)sim::MachineConfig::parse(spec);
    FAIL() << "accepted '" << spec << "'";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << spec << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find("unknown key '" + key + "'"),
              std::string::npos)
        << spec << " raised '" << e.what() << "'";
  }
}

TEST(CacheConfig, ValidationNamesTheOffendingKnob) {
  expect_config_error("test,cache=8,cache-line=0", "cache-line");
  expect_config_error("test,cache=12", "power of two");
  expect_config_error("test,cache=8,cache-assoc=16", "cache-assoc");
  expect_config_error("test,cache=8,cache-assoc=3", "cache-assoc");
  expect_config_error("test,cache-write=back", "cache-write=back");
  expect_config_error("test,cache=8,cache-latency=0", "cache-latency");
  expect_config_error("test,cache=8,cache-write=around", "cache-write");
  expect_unknown_key("test,cache=8,cache-policy=plru", "cache-policy");
  expect_unknown_key("test,cache=8,cache-mode=victim", "cache-mode");
}

TEST(CacheConfig, ParseRoundTripsEveryKnob) {
  const auto cfg = sim::MachineConfig::parse(
      "test,cache=64,cache-line=4,cache-assoc=8,cache-write=back,"
      "cache-latency=3");
  EXPECT_EQ(cfg.cache.capacity, 64u);
  EXPECT_EQ(cfg.cache.line_words, 4u);
  EXPECT_EQ(cfg.cache.assoc, 8u);
  EXPECT_EQ(cfg.cache.write, cache::WritePolicy::kBack);
  EXPECT_EQ(cfg.cache.hit_latency, 3u);
  EXPECT_TRUE(cfg.cache.enabled());
  EXPECT_EQ(cfg.cache.ways(), 8u);
  EXPECT_EQ(cfg.cache.sets(), 8u);

  const auto off = sim::MachineConfig::parse("test");
  EXPECT_FALSE(off.cache.enabled());
  // assoc = 0 means fully associative: one set, capacity ways.
  const auto full = sim::MachineConfig::parse("test,cache=16");
  EXPECT_EQ(full.cache.ways(), 16u);
  EXPECT_EQ(full.cache.sets(), 1u);
}

// ----------------------------------------------------------------- tier

cache::CacheConfig small_cache(std::uint64_t capacity, std::uint64_t assoc,
                               cache::WritePolicy write) {
  cache::CacheConfig c;
  c.capacity = capacity;
  c.line_words = 1;  // addr == line, easiest to reason about
  c.assoc = assoc;
  c.write = write;
  return c;
}

TEST(CacheTier, LruPromotesOnHitAndEvictsLeastRecent) {
  cache::CacheTier t(small_cache(4, 0, cache::WritePolicy::kBack), 1);
  for (std::uint64_t a : {0, 1, 2, 3}) EXPECT_FALSE(t.access(0, a).hit);
  EXPECT_TRUE(t.access(0, 0).hit);  // promotes 0 to MRU
  // Next fill evicts the least recent line, which is now 1 (not 0).
  const auto acc = t.access(0, 4);
  EXPECT_FALSE(acc.hit);
  EXPECT_TRUE(acc.writeback);  // write-back: every valid line is dirty
  EXPECT_EQ(acc.victim_addr, 1u);
  EXPECT_TRUE(t.access(0, 0).hit);
  EXPECT_FALSE(t.access(0, 1).hit);  // 1 was the victim
  EXPECT_EQ(t.hits(), 2u);
  EXPECT_EQ(t.misses(), 6u);
  EXPECT_EQ(t.writebacks(), 2u);  // victims 1 and then 2 (LRU after 4)
}

TEST(CacheTier, FifoIgnoresHitsWhenChoosingVictims) {
  // Replacement is LRU only: a replacement-policy key is refused.
  expect_unknown_key("test,cache=4,cache-policy=fifo", "cache-policy");
  expect_unknown_key("test,cache=4,cache-policy=lru", "cache-policy");
}

TEST(CacheTier, DirectMappedConflictsWithinTheSet) {
  // capacity 4, assoc 1: four sets, line & 3 selects the set.
  cache::CacheTier t(small_cache(4, 1, cache::WritePolicy::kBack), 1);
  EXPECT_FALSE(t.access(0, 0).hit);
  EXPECT_FALSE(t.access(0, 1).hit);  // different set: no conflict
  EXPECT_TRUE(t.access(0, 0).hit);
  const auto acc = t.access(0, 4);  // same set as 0
  EXPECT_FALSE(acc.hit);
  EXPECT_TRUE(acc.writeback);
  EXPECT_EQ(acc.victim_addr, 0u);
  EXPECT_FALSE(t.access(0, 0).hit);
  EXPECT_TRUE(t.access(0, 1).hit);  // set 1 undisturbed
}

TEST(CacheTier, WriteThroughNeverWritesBack) {
  cache::CacheTier t(small_cache(2, 0, cache::WritePolicy::kThrough), 1);
  for (std::uint64_t a = 0; a < 10; ++a) {
    const auto acc = t.access(0, a);
    EXPECT_FALSE(acc.hit);
    EXPECT_FALSE(acc.writeback) << a;  // through: lines are never dirty
  }
  EXPECT_EQ(t.writebacks(), 0u);
}

TEST(CacheTier, LineGranularityAndPerProcessorIsolation) {
  cache::CacheConfig c;
  c.capacity = 4;
  c.line_words = 8;
  cache::CacheTier t(c, 2);
  EXPECT_FALSE(t.access(0, 3).hit);
  EXPECT_TRUE(t.access(0, 7).hit);    // same line (words 0..7)
  EXPECT_FALSE(t.access(0, 8).hit);   // next line
  EXPECT_FALSE(t.access(1, 3).hit);   // other processor: own tags
  EXPECT_EQ(t.max_proc_misses(), 2u);
}

TEST(CacheTier, ScratchpadMembershipOnlyNoFills) {
  // The tier always fills automatically: a mode key is refused.
  expect_unknown_key("test,cache=4,cache-mode=scratchpad", "cache-mode");
  expect_unknown_key("test,cache=4,cache-mode=cache", "cache-mode");
}

TEST(CacheTier, ResetColdStartsTagsAndCounters) {
  cache::CacheTier t(small_cache(4, 0, cache::WritePolicy::kBack), 1);
  EXPECT_FALSE(t.access(0, 1).hit);
  EXPECT_TRUE(t.access(0, 1).hit);
  t.reset();
  EXPECT_EQ(t.hits(), 0u);
  EXPECT_EQ(t.misses(), 0u);
  EXPECT_FALSE(t.access(0, 1).hit);  // tags are cold again
  // A dirty line from before the reset must not write back after it.
  const auto acc = t.access(0, 5);
  EXPECT_FALSE(acc.writeback);
}

// ------------------------------------------------------------ hot spot

TEST(CachePlacement, HotLinesRanksByTouchCountThenLineId) {
  // An 8-line fully associative LRU tier keeps the k-hot location's
  // line resident: a touch hits exactly when fewer than 8 other lines
  // were touched since the previous one (its LRU stack distance), and
  // on this stream that is nearly every repeat.
  const auto addrs = workload::k_hot(4000, 2000, 1 << 12, 7);
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const std::uint64_t a : addrs) ++counts[a];
  const std::uint64_t hot =
      std::max_element(counts.begin(), counts.end(),
                       [](const auto& x, const auto& y) {
                         return x.second < y.second;
                       })->first;
  ASSERT_EQ(counts[hot], 2000u);

  cache::CacheConfig c;
  c.capacity = 8;
  c.line_words = 8;
  cache::CacheTier t(c, 1);
  const std::uint64_t hot_line = c.line_of(hot);
  std::uint64_t touches = 0;
  std::uint64_t hits = 0;
  std::uint64_t oracle_hits = 0;
  std::set<std::uint64_t> since;  // other lines touched since the last
  for (const std::uint64_t a : addrs) {
    const bool hit = t.access(0, a).hit;
    if (c.line_of(a) != hot_line) {
      since.insert(c.line_of(a));
      continue;
    }
    if (touches++ > 0 && since.size() < c.capacity) ++oracle_hits;
    if (hit) ++hits;
    since.clear();
  }
  EXPECT_GE(touches, 2000u);
  EXPECT_EQ(hits, oracle_hits);
  EXPECT_GE(hits, 1900u);
}

// ---------------------------------------------------- machine integration

sim::MachineConfig cached_machine(std::uint64_t capacity,
                                  cache::WritePolicy write) {
  auto cfg = sim::MachineConfig::test_machine();  // p=4, d=4, L=8, x=4
  cfg.cache.capacity = capacity;
  cfg.cache.line_words = 8;
  cfg.cache.write = write;
  return cfg;
}

TEST(CacheMachine, CapacityZeroIsBitIdenticalToNoCacheAtAll) {
  // The acceptance bar: setting every cache knob except capacity must
  // leave results AND traces bit-identical to a machine that never
  // heard of the tier (the disabled tier takes the pre-tier code paths).
  const auto addrs = workload::k_hot(6000, 1500, 1 << 14, 3);
  auto plain = sim::MachineConfig::test_machine();
  auto knobs = sim::MachineConfig::test_machine();
  knobs.cache.line_words = 16;
  knobs.cache.hit_latency = 5;
  knobs.cache.assoc = 4;

  sim::Machine a(plain);
  sim::Machine b(knobs);
  obs::TraceRing ring_a(1 << 16);
  obs::TraceRing ring_b(1 << 16);
  a.set_tracer(&ring_a);
  b.set_tracer(&ring_b);
  const auto ra = a.scatter(addrs);
  const auto rb = b.scatter(addrs);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.breakdown, rb.breakdown);
  EXPECT_EQ(ra.cache_hits, rb.cache_hits);
  EXPECT_EQ(rb.cache_misses, 0u);
  EXPECT_EQ(rb.cache_evictions, 0u);
  const auto ea = ring_a.drain();
  const auto eb = ring_b.drain();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].ts, eb[i].ts) << i;
    EXPECT_EQ(ea[i].kind, eb[i].kind) << i;
  }
}

TEST(CacheMachine, SevenTermIdentityHoldsExactlyWithCachingOn) {
  // Working set far under capacity: after warmup nearly every access is
  // a local hit, the critical event is a cache hit, and the seven terms
  // must still reproduce the makespan to the cycle.
  auto cfg = cached_machine(64, cache::WritePolicy::kBack);
  cfg.slackness = 64 * 1024;
  sim::Machine m(cfg);
  const auto addrs = workload::cyclic(4096, 64);  // 8 lines, all cached
  const auto res = m.scatter(addrs);
  EXPECT_EQ(res.breakdown.total(), res.cycles);
  EXPECT_GT(res.breakdown.cache_hit, 0u);
  EXPECT_GT(res.cache_hits, 0u);
  // Every fresh issue either hits the tier or reaches a bank.
  EXPECT_EQ(res.cache_hits + res.cache_misses, res.n);
  // Only misses may touch banks: the per-bank load is bounded by them.
  EXPECT_LE(res.max_bank_load, res.cache_misses + res.cache_evictions);
}

TEST(CacheMachine, HitsBypassBanksAndMissesReachThem) {
  auto cfg = cached_machine(64, cache::WritePolicy::kThrough);
  sim::Machine with(cfg);
  sim::Machine without(sim::MachineConfig::test_machine());
  const auto addrs = workload::cyclic(4096, 64);
  const auto rc = with.scatter(addrs);
  const auto r0 = without.scatter(addrs);
  // The hot 64-word region hammers 8 banks uncached; cached, the bank
  // pipeline sees the 8 warmup misses per processor plus the background
  // write-through stream, which does not gate completions.
  EXPECT_LT(rc.cycles, r0.cycles);
  EXPECT_EQ(rc.cache_misses, 4u * 8u);  // p=4 procs x 8 lines
  EXPECT_EQ(rc.cache_evictions, 0u);    // write-through: never dirty
}

TEST(CacheMachine, WriteBackEvictionsGenerateBankTraffic) {
  // Working set of 32 lines against a 4-line cache: constant capacity
  // misses, every eviction dirty.
  auto cfg = cached_machine(4, cache::WritePolicy::kBack);
  sim::Machine m(cfg);
  obs::TraceRing ring(1 << 16);
  m.set_tracer(&ring);
  const auto res = m.scatter(workload::cyclic(2048, 256));
  EXPECT_GT(res.cache_evictions, 0u);
  EXPECT_EQ(res.breakdown.total(), res.cycles);
  std::uint64_t writebacks = 0;
  for (const auto& ev : ring.drain())
    if (ev.kind == obs::TraceKind::kWriteback) ++writebacks;
  if constexpr (obs::kTraceCompiledIn) {
    EXPECT_EQ(writebacks, res.cache_evictions);
  }
}

TEST(CacheMachine, ScratchpadPinsServeHitsAndRejectsWrongMode) {
  // No placement is needed for the hot location: the automatic LRU tier
  // serves its repeats locally, and a scratchpad spec is refused.
  sim::Machine m(cached_machine(8, cache::WritePolicy::kThrough));
  const auto res = m.scatter(workload::k_hot(4000, 2000, 1 << 12, 7));
  EXPECT_GE(res.cache_hits, 1900u);  // nearly every hot repeat
  EXPECT_EQ(res.cache_hits + res.cache_misses, res.n);
  EXPECT_EQ(res.cache_evictions, 0u);  // write-through: never dirty
  EXPECT_EQ(res.breakdown.total(), res.cycles);

  expect_unknown_key("test,cache=8,cache-mode=scratchpad", "cache-mode");
}

TEST(CacheMachine, ScatterBanksBypassesTheTier) {
  // Direct bank ids carry no address locality; the tier must not see
  // them (hit/miss counters stay zero) and results must match the
  // uncached machine exactly.
  auto cfg = cached_machine(64, cache::WritePolicy::kBack);
  sim::Machine with(cfg);
  sim::Machine without(sim::MachineConfig::test_machine());
  std::vector<std::uint64_t> banks(4000);
  for (std::size_t i = 0; i < banks.size(); ++i) banks[i] = i % 16;
  const auto rc = with.scatter_banks(banks);
  const auto r0 = without.scatter_banks(banks);
  EXPECT_EQ(rc.cycles, r0.cycles);
  EXPECT_EQ(rc.cache_misses, 0u);
  EXPECT_EQ(rc.cache_hits, 0u);
  EXPECT_EQ(rc.breakdown, r0.breakdown);
}

TEST(CacheMachine, TierMetricsPublishOnlyWhenTierExists) {
  auto& reg = obs::MetricsRegistry::global();
  const auto addrs = workload::cyclic(2048, 64);

  // An uncached run must publish nothing into the tier counters. The
  // registry is process-global and reset() zeroes values but keeps
  // registered names, so earlier cached runs in this process may have
  // created the counters already — absent and zero are both "nothing".
  reg.reset();
  sim::Machine off((sim::MachineConfig::test_machine()));
  (void)off.scatter(addrs);
  for (const auto& e : reg.snapshot(/*include_host=*/false)) {
    if (e.name == "bank.cache_hits" || e.name == "bank.cache_misses" ||
        e.name == "bank.cache_evictions") {
      EXPECT_EQ(e.value, 0u) << e.name;
    }
  }

  reg.reset();
  sim::Machine on(cached_machine(64, cache::WritePolicy::kBack));
  const auto res = on.scatter(addrs);
  std::uint64_t hits = 0, misses = 0;
  for (const auto& e : reg.snapshot(/*include_host=*/false)) {
    if (e.name == "bank.cache_hits") hits = e.value;
    if (e.name == "bank.cache_misses") misses = e.value;
  }
  EXPECT_EQ(hits, res.cache_hits);
  EXPECT_EQ(misses, res.cache_misses);
  EXPECT_EQ(hits + misses, res.n);
  reg.reset();
}

// ------------------------------------------------------------- predictor

TEST(CachePredictor, ReducesToFlatModelWithoutHits) {
  const core::DxBspParams m{4, 1, 8, 4, 4};
  const core::CachedStepProfile s{100, 100, 30, 0, 400, 2, 400};
  EXPECT_EQ(core::dxbsp_step_time_cached(m, s),
            core::dxbsp_step_time(m, core::StepProfile{100, 30, 400}));
}

TEST(CachePredictor, AllHitsCostNoNetworkTime) {
  const core::DxBspParams m{4, 2, 8, 4, 4};
  const core::CachedStepProfile s{100, 0, 0, 400, 0, 3, 400};
  EXPECT_EQ(core::dxbsp_step_time_cached(m, s), 2 * 99 + 3);
}

TEST(CachePredictor, TakesTheLaterOfHitAndMissTails) {
  const core::DxBspParams m{4, 1, 50, 4, 4};
  // Miss core: max(1*10, 4*5) + 100 = 120; hit tail: 99 + 2 = 101.
  const core::CachedStepProfile tail_miss{100, 10, 5, 360, 40, 2, 400};
  EXPECT_EQ(core::dxbsp_step_time_cached(m, tail_miss), 120u);
  // With a longer issue stream the hit tail wins: 199 + 2 = 201 > 120.
  const core::CachedStepProfile tail_hit{200, 10, 5, 760, 40, 2, 800};
  EXPECT_EQ(core::dxbsp_step_time_cached(m, tail_hit), 201u);
}

// ----------------------------------------------------------------- drift

// A machine whose cache serves nearly everything, with a latency large
// enough that the flat model's 2L tax alone pushes it out of the ±25%
// band — the negative test the corrected predictor exists to fix.
sim::MachineConfig drift_machine() {
  auto cfg = cached_machine(64, cache::WritePolicy::kBack);
  cfg.latency = 200;
  cfg.slackness = 64 * 1024;
  return cfg;
}

TEST(CacheDrift, FlatPredictionOfCachedRunIsOutOfBand) {
  const auto cfg = drift_machine();
  sim::Machine m(cfg);
  const auto res = m.scatter(workload::cyclic(2048, 64));
  ASSERT_GT(res.cache_hits, res.cache_misses);

  // Scoring the same measurement against the uncorrected flat model
  // (cache activity withheld) must leave the band...
  obs::DriftDetector flat;
  obs::DriftSample s;
  s.cycles = res.cycles;
  s.n = res.n;
  s.h_proc = res.max_proc_requests;
  s.h_bank = res.max_bank_load;
  s.location_contention = res.max_location_contention;
  s.config = &cfg;
  const double flat_pred = flat.observe(s);
  EXPECT_EQ(flat.snapshot().out_of_band, 1u)
      << "flat " << flat_pred << " vs measured " << res.cycles;

  // ...and the corrected model (cache activity supplied) must not.
  obs::DriftDetector corrected;
  s.cache_hits = res.cache_hits;
  s.cache_misses = res.cache_misses;
  s.h_proc_miss = res.max_proc_miss;
  const double corr_pred = corrected.observe(s);
  EXPECT_EQ(corrected.snapshot().out_of_band, 0u)
      << "corrected " << corr_pred << " vs measured " << res.cycles;
}

TEST(CacheDrift, MachineWiredDetectorStaysInBand) {
  // End-to-end: the machine fills the drift sample itself (set_drift),
  // so cached runs are scored against the corrected predictor without
  // any caller involvement. Write-back, cyclic streams: the warmup
  // misses sit at the front of the issue window — the regime the
  // two-tail model describes. (Write-through is out of model here: its
  // fire-and-forget forwards inflate the measured h_bank without ever
  // gating a completion, so the corrected predictor overpredicts —
  // docs/cache.md §prediction.)
  auto cfg = drift_machine();
  obs::DriftDetector det;
  sim::Machine m(cfg);
  m.set_drift(&det, /*track=*/0);
  (void)m.scatter(workload::cyclic(2048, 64));
  (void)m.scatter(workload::cyclic(2048, 128));
  const auto snap = det.snapshot();
  EXPECT_EQ(snap.supersteps, 2u);
  EXPECT_EQ(snap.out_of_band, 0u)
      << "max |rel err| " << snap.max_abs_rel_err;
}

}  // namespace
}  // namespace dxbsp
