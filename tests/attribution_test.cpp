// Tests for the model-attribution profiler (docs/observability.md
// §attribution, §drift): the per-bulk-op cost decomposition must sum
// exactly to the measured makespan on EVERY engine across
// distributions, mappings, fault plans and slackness regimes; the
// bank-load sketch must count served requests only; and the drift
// detector must reproduce the paper's ±25% prediction band on healthy
// contention sweeps and on the degraded-operation sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "engine_pins.hpp"
#include "fault/fault_plan.hpp"
#include "mem/bank_mapping.hpp"
#include "obs/attribution.hpp"
#include "obs/drift.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "stats/degraded.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace dxbsp {
namespace {

sim::MachineConfig attr_config(sim::Distribution dist) {
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
  fc.retry.backoff_cap = 8192;
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

// ---- The attribution identity, property-style: sum(terms) == cycles
// on every operation, and the breakdown is bit-identical between every
// engine pin and the forced reference engine. ----

using testing_pins::kPins;
using testing_pins::pin_name;

/// One machine per engine pin (testing_pins::kPins), each run once with
/// an exact tracer and once untraced (which also covers scratch-arena
/// reuse), diffed against the forced kReference oracle.
void check_identity(sim::MachineConfig cfg,
                    const std::vector<std::uint64_t>& addrs,
                    std::shared_ptr<const fault::FaultPlan> plan,
                    std::shared_ptr<const mem::BankMapping> mapping) {
  const auto machines = testing_pins::pinned_machines([&] {
    return mapping ? std::make_unique<sim::Machine>(cfg, mapping)
                   : std::make_unique<sim::Machine>(cfg);
  });
  if (plan)
    for (const auto& m : machines) m->inject(plan);
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    std::vector<sim::FaultyBulk> outs;
    for (const auto& m : machines) {
      obs::TraceRing ring(1 << 18);
      if (traced) m->set_tracer(&ring);
      outs.push_back(m->scatter_faulty(addrs));
      m->set_tracer(nullptr);
    }
    const sim::BulkResult& want = outs.front().bulk;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      SCOPED_TRACE(pin_name(kPins[i]));
      const sim::BulkResult& got = outs[i].bulk;
      EXPECT_EQ(got.breakdown.total(), got.cycles);
      EXPECT_EQ(got.breakdown, want.breakdown);
      EXPECT_EQ(got.bank_sketch, want.bank_sketch);
      EXPECT_EQ(got.max_location_contention, want.max_location_contention);
    }
  }
}

TEST(AttributionIdentity, PropertyMatrix) {
  util::Xoshiro256 rng(97);
  for (const auto dist :
       {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    for (const std::uint64_t slackness : {std::uint64_t{16},
                                          std::uint64_t{64} * 1024}) {
      auto cfg = attr_config(dist);
      cfg.slackness = slackness;
      for (const std::string& mapping_name :
           {std::string("interleaved"), std::string("quadratic")}) {
        std::shared_ptr<const mem::BankMapping> mapping =
            mem::make_mapping(mapping_name, cfg.banks(), rng);
        for (int plan_kind = 0; plan_kind < 3; ++plan_kind) {
          SCOPED_TRACE("dist=" + std::to_string(static_cast<int>(dist)) +
                       " S=" + std::to_string(slackness) + " map=" +
                       mapping_name + " plan=" + std::to_string(plan_kind));
          std::shared_ptr<const fault::FaultPlan> plan;
          if (plan_kind == 1) plan = drop_plan(cfg.banks(), 0.05, 8);
          if (plan_kind == 2) plan = chaos_plan(cfg.banks());
          check_identity(cfg, workload::uniform_random(6000, 1 << 18, 23),
                         plan, mapping);
          check_identity(cfg, workload::k_hot(4000, 1000, 1 << 18, 3), plan,
                         mapping);
        }
      }
    }
  }
}

TEST(AttributionIdentity, EmptyOperationIsAllZero) {
  sim::Machine m(attr_config(sim::Distribution::kBlock));
  const auto res = m.scatter(std::vector<std::uint64_t>{});
  EXPECT_EQ(res.cycles, 0u);
  EXPECT_EQ(res.breakdown, obs::CostBreakdown{});
  EXPECT_EQ(res.bank_sketch.served, 0u);
  EXPECT_EQ(res.max_location_contention, 0u);
}

TEST(AttributionIdentity, ScatterBanksPath) {
  auto cfg = attr_config(sim::Distribution::kBlock);
  std::vector<std::uint64_t> banks(5000);
  for (std::size_t i = 0; i < banks.size(); ++i)
    banks[i] = (i * 7 + i / 13) % cfg.banks();
  const auto machines = testing_pins::pinned_machines(
      [&] { return std::make_unique<sim::Machine>(cfg); });
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    std::vector<sim::BulkResult> outs;
    for (const auto& m : machines) {
      obs::TraceRing ring(1 << 18);
      if (traced) m->set_tracer(&ring);
      outs.push_back(m->scatter_banks(banks));
      m->set_tracer(nullptr);
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
      SCOPED_TRACE(pin_name(kPins[i]));
      EXPECT_EQ(outs[i].breakdown.total(), outs[i].cycles);
      EXPECT_EQ(outs[i].breakdown, outs.front().breakdown);
      EXPECT_EQ(outs[i].bank_sketch, outs.front().bank_sketch);
    }
  }
}

TEST(AttributionIdentity, BulkDeliveryAblation) {
  // The BSP-delivery ablation has no issue pipeline: its decomposition
  // is 2L of wire time plus pure bank service, and still sums exactly.
  auto cfg = attr_config(sim::Distribution::kBlock);
  sim::Machine m(cfg);
  const auto addrs = workload::uniform_random(4000, 1 << 18, 41);
  const auto res = m.scatter_bulk_delivery(addrs);
  EXPECT_EQ(res.breakdown.total(), res.cycles);
  EXPECT_EQ(res.breakdown.latency, 2 * cfg.latency);
  EXPECT_EQ(res.breakdown.issue_gap, 0u);
  EXPECT_EQ(res.breakdown.window_stall, 0u);
}

TEST(AttributionIdentity, LocationContentionMeasuresHottestAddress) {
  // k_hot aims exactly k requests at one address; nothing else repeats
  // anywhere near that often, so measured k must equal the workload's k.
  auto cfg = attr_config(sim::Distribution::kBlock);
  sim::Machine m(cfg);
  const std::uint64_t k = 1500;
  const auto res = m.scatter(workload::k_hot(4000, k, 1 << 20, 7));
  EXPECT_EQ(res.max_location_contention, k);
}

TEST(AttributionIdentity, TermNamesCoverAllFields) {
  obs::CostBreakdown c;
  c.issue_gap = 1;
  c.window_stall = 2;
  c.latency = 3;
  c.bank_service = 4;
  c.retry_backoff = 5;
  c.failover = 6;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < obs::kCostTerms; ++i) {
    EXPECT_NE(obs::cost_term_name(i), nullptr);
    sum += obs::cost_term_value(c, i);
  }
  EXPECT_EQ(sum, c.total());
  EXPECT_EQ(c.total(), 21u);
}

// ---- Satellite: kUnserved slots are excluded from the bank-service
// sketch and the per-element telemetry. ----

TEST(AttributionUnserved, NackHeavyPlanExcludesFailedRequests) {
  // Budget 0: every dropped request fails terminally, leaving kUnserved
  // timing slots. Those requests never held a bank, so they must appear
  // in neither the sketch's served count nor the per-element divisor.
  auto cfg = attr_config(sim::Distribution::kCyclic);
  sim::Machine m(cfg);
  m.inject(drop_plan(cfg.banks(), 0.3, 0));
  const auto addrs = workload::uniform_random(4000, 1 << 18, 29);
  const auto out = m.scatter_faulty(addrs);
  ASSERT_FALSE(out.ok());
  ASSERT_GT(out.degraded->failed_requests, 0u);
  const sim::BulkResult& b = out.bulk;
  EXPECT_LT(b.completed, b.n);
  EXPECT_EQ(b.completed + out.degraded->failed_requests, b.n);
  // Sketch counts served requests only (combined requests never reach a
  // bank either; this config does not combine).
  EXPECT_EQ(b.bank_sketch.served, b.completed - b.combined);
  // cycles_per_element divides by completed, not n.
  EXPECT_DOUBLE_EQ(b.cycles_per_element(),
                   static_cast<double>(b.cycles) /
                       static_cast<double>(b.completed));
  // And the identity still holds on a degraded run.
  EXPECT_EQ(b.breakdown.total(), b.cycles);
}

TEST(AttributionUnserved, EmptyCompletedIsZeroPerElement) {
  sim::BulkResult r;
  r.cycles = 1234;
  r.n = 10;
  r.completed = 0;
  EXPECT_EQ(r.cycles_per_element(), 0.0);
}

// ---- BankLoadSketch units. ----

TEST(BankLoadSketch, ExactQuantilesSmallLoads) {
  obs::BankLoadSketch s;
  for (const std::uint64_t load : {1, 2, 3, 4}) s.observe(load);
  EXPECT_EQ(s.banks, 4u);
  EXPECT_EQ(s.served, 10u);
  EXPECT_EQ(s.max, 4u);
  EXPECT_EQ(s.p50(), 2u);
  EXPECT_EQ(s.p90(), 4u);
  EXPECT_EQ(s.p99(), 4u);
  EXPECT_EQ(s.quantile(0.25), 1u);
  EXPECT_EQ(s.overflow, 0u);
}

TEST(BankLoadSketch, OverflowRegionReportsMax) {
  obs::BankLoadSketch s;
  s.observe(1);
  s.observe(100);  // > kExact: overflow bucket
  s.observe(200);
  EXPECT_EQ(s.overflow, 2u);
  EXPECT_EQ(s.max, 200u);
  // Rank 2 of 3 lands in the overflow region: the sketch reports its
  // upper bound for that region (max), not a fabricated mid value.
  EXPECT_EQ(s.p50(), 200u);
  EXPECT_EQ(s.p99(), 200u);
  EXPECT_EQ(s.quantile(0.33), 1u);  // rank 1 is still exact
}

TEST(BankLoadSketch, MergeEqualsCombinedObservation) {
  obs::BankLoadSketch a, b, both;
  const std::vector<std::uint64_t> la = {0, 3, 7, 64, 65};
  const std::vector<std::uint64_t> lb = {1, 3, 128};
  for (const auto v : la) {
    a.observe(v);
    both.observe(v);
  }
  for (const auto v : lb) {
    b.observe(v);
    both.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a, both);
}

TEST(BankLoadSketch, EmptyQuantileIsZero) {
  const obs::BankLoadSketch s;
  EXPECT_EQ(s.p50(), 0u);
  EXPECT_EQ(s.p99(), 0u);
}

// ---- FaultPlan fingerprint. ----

TEST(FaultPlanFingerprint, StableAndSensitive) {
  fault::FaultConfig fc;
  fc.seed = 7;
  fc.drop_rate = 0.05;
  fc.slow_fraction = 0.25;
  fc.slow_multiplier = 4;
  const fault::FaultPlan p1(fc, 64);
  const fault::FaultPlan p2(fc, 64);
  EXPECT_EQ(p1.fingerprint(), p2.fingerprint());

  const fault::FaultPlan other_banks(fc, 128);
  EXPECT_NE(p1.fingerprint(), other_banks.fingerprint());

  fc.drop_rate = 0.06;
  const fault::FaultPlan other_drop(fc, 64);
  EXPECT_NE(p1.fingerprint(), other_drop.fingerprint());

  fc.drop_rate = 0.05;
  fc.seed = 8;
  const fault::FaultPlan other_seed(fc, 64);
  EXPECT_NE(p1.fingerprint(), other_seed.fingerprint());
}

// ---- Drift detector semantics. ----

obs::DriftSample make_sample(const sim::MachineConfig& cfg,
                             std::uint64_t track, std::uint64_t step,
                             std::uint64_t cycles) {
  obs::DriftSample s;
  s.track = track;
  s.step = step;
  s.cycles = cycles;
  s.n = 1000;
  s.h_proc = 250;
  s.h_bank = 70;
  s.location_contention = 1;
  s.mapping = "interleaved";
  s.config = &cfg;
  return s;
}

TEST(DriftDetector, CountsOutOfBandAgainstHealthyModel) {
  const auto cfg = attr_config(sim::Distribution::kBlock);
  obs::DriftDetector det(obs::DriftConfig{0.25});
  const double pred =
      obs::drift_prediction(cfg, nullptr, 1000, 250, 70, 1);
  ASSERT_GT(pred, 0.0);
  // Within band: measured == prediction.
  det.observe(make_sample(cfg, 0, 0,
                          static_cast<std::uint64_t>(pred)));
  // Out of band: measured is double the prediction.
  det.observe(make_sample(cfg, 0, 1,
                          static_cast<std::uint64_t>(2.0 * pred)));
  const auto snap = det.snapshot();
  EXPECT_EQ(snap.supersteps, 2u);
  EXPECT_EQ(snap.out_of_band, 1u);
  EXPECT_GT(snap.max_abs_rel_err, 0.9);
  ASSERT_TRUE(snap.worst.valid);
  EXPECT_EQ(snap.worst.step, 1u);
  EXPECT_EQ(snap.worst.mapping, "interleaved");
}

TEST(DriftDetector, WorstLatchIsOrderIndependent) {
  const auto cfg = attr_config(sim::Distribution::kBlock);
  const double pred =
      obs::drift_prediction(cfg, nullptr, 1000, 250, 70, 1);
  std::vector<obs::DriftSample> samples;
  for (std::uint64_t i = 0; i < 6; ++i)
    samples.push_back(make_sample(
        cfg, /*track=*/i, /*step=*/0,
        static_cast<std::uint64_t>(pred * (1.0 + 0.05 * double(i)))));
  // Two identical-error samples with different identities: the latch
  // must break the tie toward the lower (track, step), not arrival order.
  samples.push_back(make_sample(cfg, 9, 3, samples.back().cycles));

  obs::DriftDetector fwd(obs::DriftConfig{0.25});
  obs::DriftDetector rev(obs::DriftConfig{0.25});
  for (const auto& s : samples) fwd.observe(s);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it)
    rev.observe(*it);

  const auto a = fwd.snapshot();
  const auto b = rev.snapshot();
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.out_of_band, b.out_of_band);
  EXPECT_DOUBLE_EQ(a.max_abs_rel_err, b.max_abs_rel_err);
  ASSERT_TRUE(a.worst.valid);
  ASSERT_TRUE(b.worst.valid);
  EXPECT_EQ(a.worst.track, b.worst.track);
  EXPECT_EQ(a.worst.step, b.worst.step);
  EXPECT_EQ(a.worst.track, 5u);  // the tied pair resolves to lower track
  EXPECT_DOUBLE_EQ(a.worst.rel_err, b.worst.rel_err);
}

// ---- The acceptance band: measured vs model within ±25% on a healthy
// contention sweep (the Fig. 4 shape) and on the degraded-operation
// sweep of docs/faults.md, via the real Machine wiring. ----

TEST(DriftBand, HealthyContentionSweepStaysInBand) {
  const std::uint64_t n = 1 << 14;
  obs::DriftDetector det(obs::DriftConfig{0.25});
  std::uint64_t track = 0;
  for (const std::uint64_t k :
       {std::uint64_t{1}, std::uint64_t{64}, std::uint64_t{1} << 10, n}) {
    auto cfg = sim::MachineConfig::cray_j90();
    sim::Machine machine(cfg);
    machine.set_drift(&det, track++);
    (void)machine.scatter(workload::k_hot(n, k, 1ULL << 30, 17 + k));
  }
  const auto snap = det.snapshot();
  EXPECT_EQ(snap.supersteps, 4u);
  EXPECT_EQ(snap.out_of_band, 0u)
      << "worst rel_err " << snap.max_abs_rel_err << " at track "
      << snap.worst.track;
  EXPECT_LE(snap.max_abs_rel_err, 0.25);
}

TEST(DriftBand, DegradedSweepStaysInBand) {
  auto cfg = attr_config(sim::Distribution::kBlock);
  cfg.processors = 8;
  cfg.expansion = 8;
  cfg.slackness = 64;
  const std::uint64_t n = 1 << 16;
  const auto addrs = workload::uniform_random(n, 1 << 20, 29);

  std::vector<fault::FaultConfig> sweep;
  {
    fault::FaultConfig fc;  // healthy baseline through the faulty path
    sweep.push_back(fc);
    fc.slow_fraction = 0.25;
    fc.slow_multiplier = 4;
    sweep.push_back(fc);
    fc = {};
    fc.dead_fraction = 0.25;
    sweep.push_back(fc);
    fc = {};
    fc.drop_rate = 0.05;
    fc.retry.max_retries = 16;
    sweep.push_back(fc);
    fc = {};
    fc.slow_fraction = 0.25;
    fc.slow_multiplier = 2;
    fc.dead_fraction = 0.125;
    fc.drop_rate = 0.02;
    fc.retry.max_retries = 16;
    sweep.push_back(fc);
  }

  obs::DriftDetector det(obs::DriftConfig{0.25});
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    sim::Machine machine(cfg);
    machine.inject(std::make_shared<fault::FaultPlan>(sweep[i], cfg.banks()));
    machine.set_drift(&det, i);
    const auto out = machine.scatter_faulty(addrs);
    EXPECT_TRUE(out.ok());
  }
  const auto snap = det.snapshot();
  EXPECT_EQ(snap.supersteps, sweep.size());
  EXPECT_EQ(snap.out_of_band, 0u)
      << "worst rel_err " << snap.max_abs_rel_err << " at scenario "
      << snap.worst.track << " (plan fingerprint "
      << snap.worst.plan_fingerprint << ")";
  EXPECT_LE(snap.max_abs_rel_err, 0.25);
}

// ---- Run-level aggregation. ----

TEST(AttributionAggregate, MergesCommutatively) {
  obs::CostBreakdown c1;
  c1.issue_gap = 10;
  c1.bank_service = 5;
  obs::CostBreakdown c2;
  c2.latency = 7;
  c2.retry_backoff = 2;
  obs::BankLoadSketch s1, s2;
  s1.observe(3);
  s2.observe(70);

  obs::AttributionAggregate ab, ba;
  ab.record(c1, s1, 4, 15);
  ab.record(c2, s2, 9, 9);
  ba.record(c2, s2, 9, 9);
  ba.record(c1, s1, 4, 15);

  const auto a = ab.snapshot();
  const auto b = ba.snapshot();
  EXPECT_EQ(a.supersteps, 2u);
  EXPECT_EQ(a.cycles, 24u);
  EXPECT_EQ(a.terms, b.terms);
  EXPECT_EQ(a.sketch, b.sketch);
  EXPECT_EQ(a.max_location_contention, 9u);
  EXPECT_EQ(b.max_location_contention, 9u);
  EXPECT_EQ(a.terms.total(), 24u);
}

}  // namespace
}  // namespace dxbsp
