// Experiment 1 (Fig 4-style, and the backbone of Fig 1): scatter time
// versus single-location contention k.
//
// n requests, one hot location receiving k of them, the rest distinct
// random. Measured on the cycle-level simulator; predicted by the
// (d,x)-BSP (tracks the knee and the linear ramp) and by BSP (stays
// flat, wrong by up to d·k). Matches the paper: predictions are accurate
// across the whole contention range on both the J90- and C90-like
// machines.
//
// Runs under SweepRunner (keys are the contention values k; predictions
// ride in the record's aux words) so --checkpoint/--resume/--deadline
// work and a resumed run prints byte-identical output.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/predictor.hpp"
#include "sim/machine.hpp"
#include "stats/compare.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  return bench::guarded([&] {
    const util::Cli cli(argc, argv);
    const auto cfg = bench::machine_from_cli(cli);
    const std::uint64_t n = cli.get_uint("n", 1 << 20);
    const std::uint64_t seed = cli.get_uint("seed", 1995);

    bench::Obs obs(cli, "Fig 4 / Experiment 1",
                  "Scatter time vs contention k; n = " + std::to_string(n) +
                      ", machine = " + cfg.name);

    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= n; k *= 4) keys.push_back(k);

    svc::WorkerContext worker;
    auto opt = bench::sweep_options_from_cli(cli);
    const std::uint64_t id = bench::apply_sharding(
        worker, cli,
        resilience::sweep_id("fig4_contention",
                             {n, seed, cfg.processors, cfg.bank_delay,
                              cfg.expansion}),
        keys, opt, obs);
    resilience::SweepRunner runner(id, std::move(opt));
    worker.begin(runner.token());
    const auto report = runner.run(keys, [&](std::uint64_t k) {
      const auto addrs = workload::k_hot(n, k, 1ULL << 30, seed + k);
      sim::Machine machine(cfg);
      machine.set_cancel(&runner.token());
      obs.attach(machine, k);
      resilience::SnapshotRecord rec;
      rec.key = k;
      rec.rng_state = seed + k;
      rec.result = machine.scatter(addrs);
      const auto pred = core::predict(rec.result, cfg);
      rec.aux[0] = pred.dxbsp_mapped;
      rec.aux[1] = pred.bsp;
      return rec;
    });
    if (worker.active())
      return obs.finish(worker.finish(report));
    if (!report.ok()) return obs.finish(bench::finish_sweep(report));

    stats::Comparison cmp("contention k", "measured vs predicted (cycles)");
    util::Table t({"k", "measured", "dxbsp", "bsp", "cyc/elt", "dxbsp/meas",
                   "bsp/meas"});
    for (const std::uint64_t k : keys) {
      const auto& rec = runner.record(k);
      const auto& meas = rec.result;
      const std::uint64_t dxbsp_mapped = rec.aux[0];
      const std::uint64_t bsp = rec.aux[1];
      cmp.add(static_cast<double>(k), static_cast<double>(meas.cycles),
              static_cast<double>(dxbsp_mapped), static_cast<double>(bsp));
      t.add_row(k, meas.cycles, dxbsp_mapped, bsp,
                meas.cycles_per_element(),
                static_cast<double>(dxbsp_mapped) / meas.cycles,
                static_cast<double>(bsp) / meas.cycles);
    }
    bench::emit(cli, t);
    std::cout << "dxbsp rms rel err: " << cmp.dxbsp_rms_error()
              << "   bsp rms rel err: " << cmp.bsp_rms_error()
              << "   bsp max rel err: " << cmp.bsp_max_error() << "\n";
    return obs.finish();
  });
}
