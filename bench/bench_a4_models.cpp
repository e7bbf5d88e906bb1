// Ablation A4: the model landscape.
//
// One scatter workload, every cost model in the library: bank-blind BSP
// and LogP, the paper's (d,x)-BSP, the (d,x)-LogP extension (the paper
// notes LogP extends with d and x the same way), and Bailey's
// lightly-loaded analysis — against the simulator across the contention
// range. Shows (a) which models track the mechanism, (b) how the
// overhead parameter o shifts the (d,x)-LogP curve, and (c) that the
// light-load analysis answers a different question entirely.

#include <iostream>

#include "bench_common.hpp"
#include "core/lightly_loaded.hpp"
#include "core/logp.hpp"
#include "core/predictor.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::machine_from_cli(cli);
  const std::uint64_t n = cli.get_int("n", 1 << 18);
  const std::uint64_t overhead = cli.get_int("o", 2);
  const std::uint64_t seed = cli.get_int("seed", 1995);

  bench::Obs obs(cli, "Ablation A4 (model landscape)",
                "Simulator vs every cost model; n = " + std::to_string(n) +
                    ", machine = " + cfg.name + ", LogP overhead o = " +
                    std::to_string(overhead));

  sim::Machine machine(cfg);
  obs.attach(machine);
  const auto m = core::DxBspParams::from_config(cfg);
  const auto lp = core::DxLogPParams::from_bsp(m, overhead);

  util::Table t({"k", "simulated", "dxbsp", "dxlogp", "bsp", "logp",
                 "dxbsp/sim", "dxlogp/sim"});
  for (std::uint64_t k = 1; k <= n; k *= 16) {
    const auto addrs = workload::k_hot(n, k, 1ULL << 30, seed + k);
    const auto meas = machine.scatter(addrs);
    const auto pred = core::predict(meas, cfg);
    const core::StepProfile s{pred.profile.h_proc,
                              pred.profile.h_bank_mapped, n};
    t.add_row(k, meas.cycles, pred.dxbsp_mapped,
              core::dxlogp_roundtrip_time(lp, s), pred.bsp,
              core::logp_step_time(lp, s),
              static_cast<double>(pred.dxbsp_mapped) / meas.cycles,
              static_cast<double>(core::dxlogp_roundtrip_time(lp, s)) /
                  meas.cycles);
  }
  bench::emit(cli, t);

  std::cout << "Bailey light-load view of the same machine (one request per "
               "processor in flight):\n"
            << "  conflict probability = "
            << core::lightly_loaded_conflict_probability(
                   cfg.processors, cfg.banks(), cfg.bank_delay)
            << ", expected access time = "
            << core::lightly_loaded_access_time(cfg.processors, cfg.banks(),
                                                cfg.bank_delay, cfg.latency)
            << " cycles\n"
            << "  banks for <= 5% conflicts at this d: "
            << core::lightly_loaded_banks_needed(cfg.processors,
                                                 cfg.bank_delay, 0.05)
            << " (machine has " << cfg.banks()
            << ") — conflict avoidance asks a different question than\n"
               "  heavy-load throughput, which is the paper's regime.\n";
  return obs.finish();
}
