// Robustness R1: degraded operation under injected memory-system faults.
//
// Sweeps transient bank slowness, dead-bank fractions (with spare-bank
// failover), and in-flight NACK/drop rates on a J90-like machine, and
// compares the simulated degraded time with the analytic companion
// model's effective-parameter prediction (d' = d/(1-f_slow),
// x' = x·(1-f_dead), additive retry tail; docs/faults.md). The telemetry
// columns show what the machine actually did: retries, NACKs, failovers,
// extra bank-busy cycles.
//
// The whole grid runs under SweepRunner: each scenario is one keyed
// point whose record carries the full fault telemetry plus the analytic
// prediction, so an interrupted sweep resumes from its checkpoint and
// prints byte-identical tables.

#include <bit>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_plan.hpp"
#include "sim/machine.hpp"
#include "stats/degraded.hpp"
#include "workload/patterns.hpp"

namespace {

struct Scenario {
  std::string label;
  dxbsp::fault::FaultConfig config;
  std::size_t table = 0;  // which output table the row belongs to
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dxbsp;
  return bench::guarded([&] {
    const util::Cli cli(argc, argv);
    const std::uint64_t n = cli.get_uint("n", 1 << 17);
    const std::uint64_t seed = cli.get_uint("seed", 1995);

    bench::Obs obs(cli, "R1 (fault sweep)",
                  "simulated vs predicted degraded time; n = " +
                      std::to_string(n));

    const sim::MachineConfig cfg = sim::MachineConfig::cray_j90();

    // Enumerate the grid up front; a scenario's key is its index here,
    // so the grid shape is part of the sweep fingerprint below.
    std::vector<Scenario> grid;
    for (const double frac : {0.0, 0.125, 0.25, 0.5}) {
      for (const std::uint64_t mult : {2ULL, 4ULL}) {
        if (frac == 0.0 && mult != 2) continue;
        Scenario s;
        s.config.seed = seed;
        s.config.slow_fraction = frac;
        s.config.slow_multiplier = mult;
        s.label =
            "slow=" + std::to_string(frac) + " mult=" + std::to_string(mult);
        s.table = 0;
        grid.push_back(s);
      }
    }
    for (const double frac : {0.0625, 0.125, 0.25, 0.5}) {
      Scenario s;
      s.config.seed = seed;
      s.config.dead_fraction = frac;
      s.label = "dead=" + std::to_string(frac);
      s.table = 1;
      grid.push_back(s);
    }
    for (const double q : {0.01, 0.05, 0.1, 0.2}) {
      Scenario s;
      s.config.seed = seed;
      s.config.drop_rate = q;
      s.config.retry.max_retries = 16;
      s.label = "drop=" + std::to_string(q);
      s.table = 2;
      grid.push_back(s);
    }
    {
      // Compound incident: refresh storms + a dead section + lossy
      // network, and a deliberately exhausted retry budget to show the
      // structured degradation surface.
      Scenario s;
      s.config.seed = seed;
      s.config.slow_fraction = 0.25;
      s.config.slow_multiplier = 4;
      s.config.dead_fraction = 0.125;
      s.config.drop_rate = 0.02;
      s.config.retry.max_retries = 16;
      s.label = "storm+dead+lossy";
      s.table = 3;
      grid.push_back(s);
      Scenario tight = s;
      tight.config.drop_rate = 0.5;
      tight.config.retry.max_retries = 2;
      tight.label = "lossy, tight budget";
      grid.push_back(tight);
    }

    std::vector<std::uint64_t> keys(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) keys[i] = i;

    svc::WorkerContext worker;
    auto opt = bench::sweep_options_from_cli(cli);
    const std::uint64_t id = bench::apply_sharding(
        worker, cli,
        resilience::sweep_id("r1_fault_sweep", {n, seed, grid.size()}),
        keys, opt, obs);
    resilience::SweepRunner runner(id, std::move(opt));
    worker.begin(runner.token());
    const auto report = runner.run(keys, [&](std::uint64_t key) {
      const Scenario& s = grid[key];
      const auto addrs = workload::uniform_random(n, 1ULL << 30, seed);
      auto plan = std::make_shared<fault::FaultPlan>(s.config, cfg.banks());
      sim::Machine machine(cfg);
      machine.set_cancel(&runner.token());
      obs.attach(machine, key);
      machine.inject(plan);
      const auto out = machine.scatter_faulty(addrs);
      resilience::SnapshotRecord rec;
      rec.key = key;
      rec.rng_state = seed;
      rec.result = out.bulk;
      rec.failed_requests = out.ok() ? 0 : out.degraded->failed_requests;
      rec.aux[0] = std::bit_cast<std::uint64_t>(
          stats::predict_degraded(cfg, *plan, n).cycles);
      return rec;
    });
    if (worker.active())
      return obs.finish(worker.finish(report));
    if (!report.ok()) return obs.finish(bench::finish_sweep(report));

    const std::vector<std::string> first_col = {"slow banks", "dead banks",
                                                "drop rate", "compound"};
    for (std::size_t table = 0; table < first_col.size(); ++table) {
      util::Table t({first_col[table], "sim cycles", "predicted", "pred/sim",
                     "retries", "nacks", "failovers", "degr cycles",
                     "status"});
      for (const std::uint64_t i : keys) {
        if (grid[i].table != table) continue;
        const auto& rec = runner.record(i);
        const auto& bulk = rec.result;
        const double pred_cycles = std::bit_cast<double>(rec.aux[0]);
        t.add_row(grid[i].label, bulk.cycles,
                  static_cast<std::uint64_t>(pred_cycles),
                  pred_cycles / static_cast<double>(bulk.cycles),
                  bulk.retries, bulk.nacks, bulk.failovers,
                  bulk.degraded_cycles,
                  rec.failed_requests == 0
                      ? "ok"
                      : ("DEGRADED: " +
                         std::to_string(rec.failed_requests) + " failed"));
      }
      bench::emit(cli, t);
    }

    std::cout << "Reading: pred/sim near 1.0 means the d'/x' correction "
                 "stays predictive;\nthe tight-budget row demonstrates "
                 "structured degradation (no hang, no\nsilent loss) when "
                 "retries cannot save a request.\n";
    return obs.finish();
  });
}
