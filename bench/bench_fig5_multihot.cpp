// Experiment 2 (Fig 5-style): scatter time with multiple hot locations.
//
// Sweeps the number of hot locations m at fixed per-location contention
// k, and k at fixed m. When all hot locations land in distinct banks the
// time is governed by the hottest single location, so the (d,x)-BSP
// prediction (which charges max bank load) stays accurate as long as the
// combined hot traffic does not saturate the banks.

#include <iostream>

#include "bench_common.hpp"
#include "core/predictor.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::machine_from_cli(cli);
  const std::uint64_t n = cli.get_int("n", 1 << 20);
  const std::uint64_t seed = cli.get_int("seed", 1995);

  bench::Obs obs(cli, "Fig 5 / Experiment 2",
                "Scatter time vs number of hot locations; n = " +
                    std::to_string(n) + ", machine = " + cfg.name);
  sim::Machine machine(cfg);
  obs.attach(machine);

  {
    const std::uint64_t k = cli.get_int("k", 1 << 12);
    util::Table t({"hot locations (k=" + std::to_string(k) + " each)",
                   "measured", "dxbsp", "bsp", "max bank load"});
    for (std::uint64_t hot = 1; hot * k <= n / 2; hot *= 4) {
      const auto addrs = workload::multi_hot(n, hot, k, 1ULL << 30, seed + hot);
      const auto meas = machine.scatter(addrs);
      const auto pred = core::predict(meas, cfg);
      t.add_row(hot, meas.cycles, pred.dxbsp_mapped, pred.bsp,
                meas.max_bank_load);
    }
    bench::emit(cli, t);
  }
  {
    const std::uint64_t hot = cli.get_int("hot", 64);
    util::Table t({"k (" + std::to_string(hot) + " hot locations)", "measured",
                   "dxbsp", "bsp", "max bank load"});
    for (std::uint64_t k = 4; hot * k <= n / 2; k *= 4) {
      const auto addrs = workload::multi_hot(n, hot, k, 1ULL << 30, seed + k);
      const auto meas = machine.scatter(addrs);
      const auto pred = core::predict(meas, cfg);
      t.add_row(k, meas.cycles, pred.dxbsp_mapped, pred.bsp,
                meas.max_bank_load);
    }
    bench::emit(cli, t);
  }
  return obs.finish();
}
