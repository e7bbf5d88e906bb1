// Figure 1: predicted vs measured time for memory access patterns
// extracted from a trace of the connected-components algorithm, as a
// function of the pattern's maximum contention.
//
// Methodology mirrors the paper: run the CC implementation over graphs
// spanning the skew spectrum (star forests with decreasing star counts
// drive hub contention up), record the label-gather address traces of
// each iteration, then replay every trace as a scatter on the J90-like
// machine and compare against the BSP and (d,x)-BSP predictions.

#include <algorithm>
#include <iostream>

#include "algos/connected_components.hpp"
#include "algos/vm.hpp"
#include "bench_common.hpp"
#include "core/predictor.hpp"
#include "mem/contention.hpp"
#include "sim/machine.hpp"
#include "stats/compare.hpp"
#include "workload/graphs.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::machine_from_cli(cli);
  const std::uint64_t n = cli.get_int("n", 1 << 15);
  const std::uint64_t seed = cli.get_int("seed", 1995);

  bench::Obs obs(cli, "Fig 1 (CC access patterns)",
                "Measured vs predicted scatter time for access patterns "
                "extracted from connected-components traces; machine = " +
                    cfg.name);

  // Collect gather traces from CC runs over increasingly skewed graphs.
  struct Pattern {
    std::vector<std::uint64_t> addrs;
    std::uint64_t contention;
  };
  std::vector<Pattern> patterns;
  for (const std::uint64_t stars : {std::uint64_t{4096}, std::uint64_t{256},
                                    std::uint64_t{16}, std::uint64_t{2},
                                    std::uint64_t{1}}) {
    const auto g = stars == 1 ? workload::star(n)
                              : workload::star_forest(n, stars, seed);
    algos::Vm vm(cfg);
    algos::CcStats stats;
    (void)algos::connected_components(vm, g, &stats, {.keep_traces = true});
    for (auto& trace : stats.gather_traces) {
      Pattern p;
      p.contention = mem::analyze_locations(trace).max_contention;
      p.addrs = std::move(trace);
      patterns.push_back(std::move(p));
    }
  }
  std::sort(patterns.begin(), patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              return a.contention < b.contention;
            });

  sim::Machine machine(cfg);
  obs.attach(machine);
  stats::Comparison cmp("contention", "CC traces");
  util::Table t({"contention k", "requests", "measured", "dxbsp", "bsp",
                 "dxbsp/meas", "bsp/meas"});
  std::uint64_t last_k = ~0ULL;
  for (const auto& p : patterns) {
    if (p.contention == last_k) continue;  // dedupe equal-k traces
    last_k = p.contention;
    const auto meas = machine.scatter(p.addrs);
    const auto pred = core::predict(meas, cfg);
    cmp.add(static_cast<double>(p.contention),
            static_cast<double>(meas.cycles),
            static_cast<double>(pred.dxbsp_mapped),
            static_cast<double>(pred.bsp));
    t.add_row(p.contention, p.addrs.size(), meas.cycles, pred.dxbsp_mapped,
              pred.bsp, static_cast<double>(pred.dxbsp_mapped) / meas.cycles,
              static_cast<double>(pred.bsp) / meas.cycles);
  }
  bench::emit(cli, t);
  std::cout << "dxbsp rms rel err: " << cmp.dxbsp_rms_error()
            << "   bsp rms rel err: " << cmp.bsp_rms_error()
            << "   bsp max rel err: " << cmp.bsp_max_error() << "\n";
  return obs.finish();
}
