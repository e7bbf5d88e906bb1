// Tests for the execution layer (docs/performance.md §selector): the
// EngineSelector's dispatch policy, the unforced SoA batched kernel's
// bit-identity with the reference engine on the SoA-specific legs
// (fused free-chain at small and large bank counts, per-element), the
// forced-misprediction fallback, and the determinism of the selector
// report section across thread interleavings.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine_pins.hpp"
#include "fault/fault_plan.hpp"
#include "obs/report.hpp"
#include "obs/selector.hpp"
#include "obs/trace.hpp"
#include "sim/engine_select.hpp"
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
  EXPECT_EQ(a.combined, b.combined);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.bank_utilization, b.bank_utilization);
  EXPECT_EQ(a.breakdown, b.breakdown);
  EXPECT_EQ(a.bank_sketch, b.bank_sketch);
}

sim::MachineConfig base_config(sim::Distribution dist) {
  auto cfg = sim::MachineConfig::test_machine();  // p=4, d=4, L=8, x=4
  cfg.distribution = dist;
  // test_machine pins S=64 to make the window gate testable; the SoA
  // and dense paths need the window to never bind, so restore the
  // paper's S=64K for the selector scenarios.
  cfg.slackness = 64 * 1024;
  return cfg;
}

/// Runs `addrs` through an unforced machine and a forced kReference one,
/// both tracer-free (so the SoA kernel is reachable), and asserts
/// identical telemetry. Returns the unforced machine's last selector
/// row, for policy assertions.
obs::SelectorRow check_auto_vs_reference(
    const sim::MachineConfig& cfg, const std::vector<std::uint64_t>& addrs,
    std::shared_ptr<const fault::FaultPlan> plan = nullptr) {
  obs::SelectorLog log;
  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  ref.selector().force(obs::EngineChoice::kReference);
  aut.set_selector(&log);
  if (plan) {
    aut.inject(plan);
    ref.inject(plan);
  }
  // Two rounds: the second hits warm scratch-arena planes.
  for (int round = 0; round < 2; ++round) {
    const auto out_aut = aut.scatter_faulty(addrs);
    const auto out_ref = ref.scatter_faulty(addrs);
    expect_same_bulk(out_aut.bulk, out_ref.bulk);
    EXPECT_EQ(out_aut.degraded.has_value(), out_ref.degraded.has_value());
  }
  const auto rows = log.snapshot().rows;
  EXPECT_EQ(rows.size(), 2u);
  return rows.empty() ? obs::SelectorRow{} : rows.back();
}

TEST(EngineSelect, SoaPathMatchesReferenceBothDistributions) {
  const auto addrs = workload::uniform_random(20000, 1 << 20, 42);
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    const auto row = check_auto_vs_reference(base_config(dist), addrs);
    EXPECT_TRUE(row.eligible_soa);
    EXPECT_EQ(row.choice, obs::EngineChoice::kSoA);
    EXPECT_FALSE(row.fallback);
    EXPECT_FALSE(row.forced);
  }
}

TEST(EngineSelect, SoaPathUnevenTailRequestCount) {
  // n not divisible by p: the last processor owns fewer elements, so the
  // SoA plane fill's ragged-tail guards are what is under test.
  const auto addrs = workload::uniform_random(10007, 1 << 20, 7);
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    const auto row = check_auto_vs_reference(base_config(dist), addrs);
    EXPECT_EQ(row.choice, obs::EngineChoice::kSoA);
  }
}

/// A k-hot trace (one word takes k = 64 requests, every other request a
/// distinct word) laid out so that two banks tie for the makespan on
/// base_config (p=4, g=1, L=8, d=4): processor 0's first 64 issues hit
/// the hot word, whose bank drains at 8 + 4·64, and the last wave,
/// w = 4·64 - 4, lands on idle banks and completes at w + 8 + 4, the
/// same cycle. The critical request is the hot bank's last one, first
/// in pop order; the tied candidates' cost terms differ, so a latch
/// that picks any other shows up in the breakdown.
std::vector<std::uint64_t> k_hot_with_tie(sim::Distribution dist) {
  constexpr std::uint64_t kP = 4;
  constexpr std::uint64_t kK = 64;
  constexpr std::uint64_t kWaves = 4 * kK - 3;  // waves 0..w
  std::vector<std::uint64_t> addrs(kP * kWaves);
  std::uint64_t next = 1;  // word 0 is hot; the rest map to distinct banks
  for (std::uint64_t j = 0; j < kWaves; ++j) {
    for (std::uint64_t proc = 0; proc < kP; ++proc) {
      const std::uint64_t elem = dist == sim::Distribution::kBlock
                                     ? proc * kWaves + j
                                     : j * kP + proc;
      addrs[elem] = (proc == 0 && j < kK) ? 0 : next++;
    }
  }
  return addrs;
}

TEST(EngineSelect, SoaBucketedKernelLargeBankArray) {
  // Bank arrays past 2^15, where the SoA kernel once switched to a
  // bucketed counting-sort form: the fused free-chain now runs at every
  // bank count and must still match the reference engine there, up to
  // 2^18 banks, including the critical-request latch's pop-order
  // tie-break (k_hot_with_tie).
  struct Case {
    std::uint64_t expansion;  // 4 procs -> 4·expansion banks
    std::vector<std::uint64_t> addrs;
  };
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    const Case cases[] = {
        {16384, workload::uniform_random(30011, 1 << 22, 13)},
        {16384, k_hot_with_tie(dist)},
        {65536, workload::uniform_random(30011, 1 << 22, 19)},
    };
    for (const Case& c : cases) {
      auto cfg = base_config(dist);
      cfg.expansion = c.expansion;
      const auto row = check_auto_vs_reference(cfg, c.addrs);
      EXPECT_TRUE(row.eligible_soa);
      EXPECT_EQ(row.choice, obs::EngineChoice::kSoA);
    }
  }
}

TEST(EngineSelect, SoaPathScatterBanks) {
  // Bank ids supplied directly: the kernel's serve() (not serve_addr())
  // leg, including its id validation.
  auto cfg = base_config(sim::Distribution::kBlock);
  std::vector<std::uint64_t> banks(20000);
  for (std::size_t i = 0; i < banks.size(); ++i)
    banks[i] = (i * 7 + i / 13) % cfg.banks();

  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  ref.selector().force(obs::EngineChoice::kReference);
  expect_same_bulk(aut.scatter_banks(banks), ref.scatter_banks(banks));

  banks[123] = cfg.banks();  // out of range: both engines must reject
  EXPECT_THROW((void)aut.scatter_banks(banks), dxbsp::Error);
  EXPECT_THROW((void)ref.scatter_banks(banks), dxbsp::Error);
}

TEST(EngineSelect, SoaPerElementLegCombiningCachedAndMultiPort) {
  // Machines whose banks are not batchable (combining, bank cache,
  // multi-port): the selector must avoid the fused kernel, run the
  // dense walk's per-element serve leg, and still match the reference
  // exactly.
  const auto hot = workload::k_hot(12000, 3000, 1 << 16, 9);

  auto combining = base_config(sim::Distribution::kBlock);
  combining.combine_requests = true;
  auto cached = base_config(sim::Distribution::kBlock);
  cached.bank_cache_lines = 4;
  cached.cache_line_words = 8;
  cached.cached_delay = 1;
  auto ported = base_config(sim::Distribution::kCyclic);
  ported.bank_ports = 2;
  for (const auto& row :
       {check_auto_vs_reference(combining, hot),
        check_auto_vs_reference(cached, workload::strided(12000, 1, 0)),
        check_auto_vs_reference(
            ported, workload::uniform_random(12000, 1 << 18, 13))}) {
    EXPECT_FALSE(row.eligible_soa);
    EXPECT_EQ(row.choice, obs::EngineChoice::kDense);
  }
}

TEST(EngineSelect, FaultyDropRetryMatchesReference) {
  // A fault plan disqualifies the dense and SoA paths; the selector must
  // land on a scheduled path and still match the reference bit for bit.
  auto cfg = base_config(sim::Distribution::kBlock);
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.drop_rate = 0.05;
  fc.retry.max_retries = 8;
  fc.retry.backoff_base = 16;
  fc.retry.backoff_cap = 8192;
  fc.retry.jitter = 8;
  const auto plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());
  const auto row = check_auto_vs_reference(
      cfg, workload::uniform_random(8000, 1 << 18, 23), plan);
  EXPECT_FALSE(row.eligible_soa);
  EXPECT_FALSE(row.eligible_dense);
  EXPECT_NE(row.choice, obs::EngineChoice::kSoA);
  EXPECT_NE(row.choice, obs::EngineChoice::kDense);
}

TEST(EngineSelect, AttributionIdentityHoldsOnSoaPath) {
  // The cost decomposition must sum exactly to the makespan on the SoA
  // kernel's single-latch attribution, same as on the event engines.
  auto cfg = base_config(sim::Distribution::kCyclic);
  sim::Machine aut(cfg);
  obs::SelectorLog log;
  aut.set_selector(&log);
  const auto out = aut.scatter(workload::k_hot(16000, 4000, 1 << 20, 3));
  ASSERT_EQ(log.snapshot().rows.at(0).choice, obs::EngineChoice::kSoA);
  EXPECT_EQ(out.breakdown.total(), out.cycles);
  EXPECT_GT(out.cycles, 0u);
}

TEST(EngineSelect, PassiveTracerNeverSteersSelection) {
  // A fleet worker attaches no tracer (its flight ring records selector
  // rows, not trace events), so its rows are the serial run's. Only a
  // tracer while attached steers selection: on every pin, healthy
  // (SoA-eligible) and faulty, a machine whose tracer was detached runs
  // byte-identical to one never traced, selector row included.
  const auto addrs = workload::uniform_random(6000, 1 << 18, 61);
  const auto cfg = base_config(sim::Distribution::kBlock);
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.drop_rate = 0.05;
  const std::shared_ptr<const fault::FaultPlan> plan =
      std::make_shared<fault::FaultPlan>(fc, cfg.banks());
  for (const auto& fault_plan : {decltype(plan){}, plan}) {
    SCOPED_TRACE(fault_plan ? "faulty" : "healthy");
    for (const auto pin : testing_pins::kPins) {
      SCOPED_TRACE(testing_pins::pin_name(pin));
      sim::Machine untraced(cfg);
      sim::Machine detached(cfg);
      obs::SelectorLog untraced_log;
      obs::SelectorLog detached_log;
      untraced.set_selector(&untraced_log);
      detached.set_selector(&detached_log);
      obs::TraceRing ring(1 << 18);
      detached.set_tracer(&ring);
      for (sim::Machine* m : {&untraced, &detached}) {
        m->selector().force(pin);
        m->inject(fault_plan);
      }
      (void)detached.scatter_faulty(addrs);  // traced: row 0
      detached.set_tracer(nullptr);

      const auto want = untraced.scatter_faulty(addrs);
      const auto got = detached.scatter_faulty(addrs);
      expect_same_bulk(got.bulk, want.bulk);
      EXPECT_EQ(got.degraded.has_value(), want.degraded.has_value());
      const auto want_rows = untraced_log.snapshot().rows;
      const auto got_rows = detached_log.snapshot().rows;
      ASSERT_EQ(want_rows.size(), 1u);
      ASSERT_EQ(got_rows.size(), 2u);
      EXPECT_EQ(got_rows[1].choice, want_rows[0].choice);
      EXPECT_EQ(got_rows[1].fallback, want_rows[0].fallback);
      EXPECT_EQ(got_rows[1].eligible_soa, want_rows[0].eligible_soa);
      EXPECT_FALSE(got_rows[0].eligible_soa) << "the traced op";
    }
  }
}

TEST(EngineSelect, PassiveRingMatchesExactRingOnDenseAndReference) {
  // A kSoA row always names the fused kernel: on banks it cannot batch
  // (combining, a bank cache, multi-port banks) the op is not
  // SoA-eligible, auto picks the dense walk, and a forced kSoA is
  // demoted to it with a fallback flag. The dense walk feeds an
  // attached ring the same events whichever way it was reached.
  auto combining = base_config(sim::Distribution::kBlock);
  combining.combine_requests = true;
  auto cached = base_config(sim::Distribution::kCyclic);
  cached.bank_cache_lines = 4;
  cached.cache_line_words = 8;
  cached.cached_delay = 1;
  auto ported = base_config(sim::Distribution::kCyclic);
  ported.bank_ports = 2;
  const auto addrs = workload::k_hot(6000, 1500, 1 << 16, 67);
  for (const auto& cfg : {combining, cached, ported}) {
    sim::Machine ref(cfg);
    ref.selector().force(obs::EngineChoice::kReference);
    const auto want = ref.scatter(addrs);
    std::vector<obs::TraceEvent> first_ring;
    for (const testing_pins::Pin pin :
         {testing_pins::Pin{}, testing_pins::Pin{obs::EngineChoice::kSoA},
          testing_pins::Pin{obs::EngineChoice::kDense}}) {
      SCOPED_TRACE(testing_pins::pin_name(pin));
      obs::SelectorLog log;
      sim::Machine m(cfg);
      m.set_selector(&log);
      m.selector().force(pin);
      expect_same_bulk(m.scatter(addrs), want);
      const auto rows = log.snapshot().rows;
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_FALSE(rows[0].eligible_soa);
      EXPECT_TRUE(rows[0].eligible_dense);
      EXPECT_EQ(rows[0].choice, obs::EngineChoice::kDense);
      EXPECT_EQ(rows[0].fallback, pin == obs::EngineChoice::kSoA);

      obs::TraceRing ring(1 << 18);
      sim::Machine traced(cfg);
      traced.set_tracer(&ring);
      traced.selector().force(pin);
      expect_same_bulk(traced.scatter(addrs), want);
      const auto got = ring.drain();
      if (!pin) {
        first_ring = got;
        continue;
      }
      ASSERT_EQ(got.size(), first_ring.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].ts, first_ring[i].ts) << "event " << i;
        EXPECT_EQ(got[i].dur, first_ring[i].dur) << "event " << i;
        EXPECT_EQ(got[i].a, first_ring[i].a) << "event " << i;
        EXPECT_EQ(got[i].b, first_ring[i].b) << "event " << i;
        EXPECT_EQ(got[i].kind, first_ring[i].kind) << "event " << i;
      }
    }
  }
}

TEST(EngineSelect, SelectorRowRecordsDecisionAndMeasurement) {
  auto cfg = base_config(sim::Distribution::kBlock);
  obs::SelectorLog log;
  sim::Machine m(cfg);
  m.set_selector(&log, /*track=*/7);
  const auto addrs = workload::uniform_random(20000, 1 << 20, 42);
  const auto out0 = m.scatter(addrs);
  const auto out1 = m.scatter(addrs);
  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].track, 7u);
  EXPECT_EQ(rows[0].step, 0u);
  EXPECT_EQ(rows[1].step, 1u);
  EXPECT_EQ(rows[0].n, addrs.size());
  EXPECT_EQ(rows[0].h_proc, addrs.size() / cfg.processors);
  EXPECT_EQ(rows[0].window, rows[0].h_proc);
  EXPECT_EQ(rows[0].plan_fingerprint, 0u);
  EXPECT_EQ(rows[0].choice, obs::EngineChoice::kSoA);
  EXPECT_EQ(rows[0].measured, out0.cycles);
  EXPECT_EQ(rows[1].measured, out1.cycles);
}

TEST(EngineSelect, ForcedMispredictionFallsBackToDense) {
  // force(kSoA) on a machine with a processor-cache tier: the SoA
  // kernel is ineligible (the tier reorders service), so the machine
  // must demote the forced choice, flag the row as a fallback, and
  // still match the reference exactly.
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 64;
  cfg.cache.line_words = 8;

  obs::SelectorLog log;
  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  ref.selector().force(obs::EngineChoice::kReference);
  aut.set_selector(&log);
  aut.selector().force(obs::EngineChoice::kSoA);

  const auto addrs = workload::k_hot(8000, 2000, 1 << 14, 3);
  expect_same_bulk(aut.scatter(addrs), ref.scatter(addrs));

  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].forced);
  EXPECT_TRUE(rows[0].fallback);
  EXPECT_FALSE(rows[0].eligible_soa);
  EXPECT_TRUE(rows[0].eligible_dense);
  EXPECT_EQ(rows[0].choice, obs::EngineChoice::kDense);
}

TEST(EngineSelect, ForcedDenseUnderFaultsFallsBackToHeap) {
  auto cfg = base_config(sim::Distribution::kCyclic);
  fault::FaultConfig fc;
  fc.seed = 5;
  fc.drop_rate = 0.02;
  fc.retry.max_retries = 8;
  const auto plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());

  obs::SelectorLog log;
  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  ref.selector().force(obs::EngineChoice::kReference);
  aut.set_selector(&log);
  aut.inject(plan);
  ref.inject(plan);
  aut.selector().force(obs::EngineChoice::kDense);

  const auto addrs = workload::uniform_random(6000, 1 << 18, 29);
  const auto out_aut = aut.scatter_faulty(addrs);
  const auto out_ref = ref.scatter_faulty(addrs);
  expect_same_bulk(out_aut.bulk, out_ref.bulk);

  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].fallback);
  EXPECT_EQ(rows[0].choice, obs::EngineChoice::kHeap);
}

TEST(EngineSelect, PinnedEngineRowsAreMarkedForced) {
  // A forced kCalendar runs the calendar scheduler even where the dense
  // and SoA fast paths are eligible: a pin is never silently upgraded.
  obs::SelectorLog log;
  sim::Machine m(base_config(sim::Distribution::kBlock));
  m.selector().force(obs::EngineChoice::kCalendar);
  m.set_selector(&log);
  (void)m.scatter(workload::uniform_random(4000, 1 << 18, 17));
  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].forced);
  EXPECT_FALSE(rows[0].fallback);
  EXPECT_TRUE(rows[0].eligible_soa);
  EXPECT_EQ(rows[0].choice, obs::EngineChoice::kCalendar);
}

/// Renders just the report for a selector log (no tracer/attribution/
/// drift), for byte-comparison.
std::string render_selector_report(const obs::SelectorLog& log) {
  obs::RunInfo info;
  info.bench = "selector determinism";
  std::ostringstream os;
  obs::write_report_json(os, info, obs::MetricsRegistry::global(), nullptr,
                         nullptr, nullptr, &log);
  return os.str();
}

TEST(EngineSelect, SelectorSectionByteIdenticalAcrossInterleavings) {
  // Four tracks' rows recorded from four concurrent threads must render
  // the same selector section as the same tracks run serially in
  // reverse order: the snapshot's total-order sort is what the report's
  // determinism contract rests on.
  const auto run_track = [](obs::SelectorLog& log, std::uint64_t track) {
    sim::Machine m(sim::MachineConfig::test_machine());
    m.set_selector(&log, track);
    const auto addrs =
        workload::uniform_random(4000 + 1000 * track, 1 << 18, track);
    (void)m.scatter(addrs);
    (void)m.scatter(addrs);
  };

  obs::SelectorLog parallel_log;
  {
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < 4; ++t)
      threads.emplace_back([&, t] { run_track(parallel_log, t); });
    for (auto& th : threads) th.join();
  }

  obs::SelectorLog serial_log;
  for (std::uint64_t t = 4; t-- > 0;) run_track(serial_log, t);

  EXPECT_EQ(render_selector_report(parallel_log),
            render_selector_report(serial_log));
  EXPECT_EQ(parallel_log.snapshot().rows.size(), 8u);
  EXPECT_EQ(parallel_log.snapshot().rows, serial_log.snapshot().rows);
}

TEST(EngineSelect, ReportSectionShapeAndOmissionWhenEmpty) {
  obs::SelectorLog log;
  const std::string bare = render_selector_report(log);
  EXPECT_EQ(bare.find("\"selector\""), std::string::npos);

  sim::Machine m(base_config(sim::Distribution::kBlock));
  m.set_selector(&log, 3);
  (void)m.scatter(workload::uniform_random(20000, 1 << 20, 42));
  const std::string json = render_selector_report(log);
  EXPECT_NE(json.find("\"selector\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"choice\": \"soa\""), std::string::npos);
  EXPECT_NE(json.find("\"track\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"measured_cycles\""), std::string::npos);
  // Schema 2 dropped the selector's own prediction columns.
  EXPECT_EQ(json.find("\"predicted_cycles\""), std::string::npos);
  EXPECT_EQ(json.find("\"h_bank_est\""), std::string::npos);
  // Merging a snapshot (the coordinator's path) reproduces the rows.
  obs::SelectorLog merged;
  merged.merge(log.snapshot());
  EXPECT_EQ(render_selector_report(merged), json);
}

}  // namespace
}  // namespace dxbsp
