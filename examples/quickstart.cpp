// Quickstart: model a bulk scatter on a bank-delay machine.
//
// Builds a J90-like machine, runs a contended scatter through the
// cycle-level simulator, and compares the measurement against the
// (d,x)-BSP and BSP predictions — the library's core loop in ~40 lines.
//
//   ./quickstart [--n=1048576] [--k=32768] [--machine=j90|c90|tera]

#include <iostream>

#include "core/predictor.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);

  // 1. Pick a machine: p processors, gap g, latency L, bank delay d,
  //    expansion x (banks = x*p). Presets approximate the paper's Table 1.
  sim::MachineConfig cfg = sim::MachineConfig::cray_j90();
  if (cli.get("machine", "j90") == "c90") cfg = sim::MachineConfig::cray_c90();
  if (cli.get("machine", "j90") == "tera") cfg = sim::MachineConfig::tera_like();
  sim::Machine machine(cfg);

  // 2. Build a workload: n requests with one location hit k times.
  const std::uint64_t n = cli.get_int("n", 1 << 20);
  const std::uint64_t k = cli.get_int("k", 1 << 15);
  const auto addrs = workload::k_hot(n, k, 1ULL << 30, /*seed=*/7);

  // 3. Measure on the simulator.
  const sim::BulkResult meas = machine.scatter(addrs);

  // 4. Predict with the models.
  const core::Prediction pred =
      core::predict(meas, cfg);

  std::cout << "machine " << cfg.name << ": p=" << cfg.processors
            << " g=" << cfg.gap << " L=" << cfg.latency
            << " d=" << cfg.bank_delay << " x=" << cfg.expansion << " ("
            << cfg.banks() << " banks)\n"
            << "workload: n=" << n << " requests, max contention k=" << k
            << "\n\n"
            << "measured (simulator) : " << meas.cycles << " cycles ("
            << meas.cycles_per_element() << " per element)\n"
            << "(d,x)-BSP prediction : " << pred.dxbsp_mapped << " cycles ("
            << static_cast<double>(pred.dxbsp_mapped) / meas.cycles
            << "x measured)\n"
            << "BSP prediction       : " << pred.bsp << " cycles ("
            << static_cast<double>(pred.bsp) / meas.cycles
            << "x measured)\n\n"
            << "max bank load " << meas.max_bank_load << ", bank utilization "
            << meas.bank_utilization << "\n"
            << "bank-bound? "
            << (core::bank_bound(core::DxBspParams::from_config(cfg),
                                 pred.profile.location_step())
                    ? "yes — BSP cannot see this"
                    : "no — both models agree here")
            << "\n";
  return 0;
}
