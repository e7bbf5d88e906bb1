// Experiment 3 (Fig 6-style): irregular distributions graded by entropy.
//
// The Thearling–Smith construction starts with uniform random keys and
// repeatedly ANDs each key with a randomly chosen partner; every round
// lowers the entropy and raises the contention until all keys collapse
// to zero. The paper verifies the (d,x)-BSP prediction tracks the
// measured scatter time across the whole family; so do we.

#include <iostream>

#include "bench_common.hpp"
#include "core/predictor.hpp"
#include "sim/machine.hpp"
#include "stats/compare.hpp"
#include "stats/histogram.hpp"
#include "workload/entropy.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::machine_from_cli(cli);
  const std::uint64_t n = cli.get_int("n", 1 << 20);
  const unsigned rounds = static_cast<unsigned>(cli.get_int("rounds", 12));
  const unsigned bits = static_cast<unsigned>(cli.get_int("bits", 26));
  const std::uint64_t seed = cli.get_int("seed", 1995);

  bench::Obs obs(cli, "Fig 6 / Experiment 3",
                "Scatter time vs key entropy (Thearling–Smith AND-folding); "
                "n = " + std::to_string(n) + ", machine = " + cfg.name);

  sim::Machine machine(cfg);
  obs.attach(machine);
  stats::Comparison cmp("entropy", "entropy family");
  util::Table t({"round", "entropy (bits)", "max k", "measured", "dxbsp",
                 "bsp", "dxbsp/meas"});
  for (const auto& trace :
       workload::entropy_family(n, rounds, bits, 0, seed)) {
    const auto meas = machine.scatter(trace.keys);
    const auto pred =
        core::predict(meas, cfg);
    cmp.add(trace.entropy_bits, static_cast<double>(meas.cycles),
            static_cast<double>(pred.dxbsp_mapped),
            static_cast<double>(pred.bsp));
    t.add_row(trace.round, trace.entropy_bits, trace.max_contention,
              meas.cycles, pred.dxbsp_mapped, pred.bsp,
              static_cast<double>(pred.dxbsp_mapped) / meas.cycles);
  }
  bench::emit(cli, t);
  std::cout << "dxbsp rms rel err: " << cmp.dxbsp_rms_error()
            << "   bsp rms rel err: " << cmp.bsp_rms_error() << "\n\n";

  // A second skew family, Zipf-distributed accesses (the standard model
  // of irregular-application hot spots), graded by theta instead of AND
  // rounds — same conclusion, different generator.
  {
    const std::uint64_t zn = std::min<std::uint64_t>(n, 1 << 18);
    util::Table tz({"zipf theta", "entropy (bits)", "max k", "measured",
                    "dxbsp", "dxbsp/meas"});
    for (const double theta : {0.0, 0.5, 0.8, 1.0, 1.2, 1.5}) {
      const auto addrs = workload::zipf(zn, 1 << 20, theta, seed);
      const auto meas = machine.scatter(addrs);
      const auto pred =
          core::predict(meas, cfg);
      tz.add_row(theta, stats::shannon_entropy(addrs),
                 pred.profile.max_contention, meas.cycles, pred.dxbsp_mapped,
                 static_cast<double>(pred.dxbsp_mapped) / meas.cycles);
    }
    bench::emit(cli, tz);
  }
  return obs.finish();
}
