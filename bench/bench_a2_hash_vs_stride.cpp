// Ablation A2: mapping family vs structured (strided) address patterns.
//
// Why the paper bothers with higher-degree polynomial hashes: interleaved
// mapping collapses on strides sharing factors with the bank count, and
// cheap mappings leave residual structure. We sweep strides (powers of
// two and odd) across interleaved / bit-reversal / linear / quadratic /
// cubic mappings and report max bank load and simulated time.

#include <iostream>

#include "bench_common.hpp"
#include "mem/bank_mapping.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::machine_from_cli(cli);
  const std::uint64_t n = cli.get_int("n", 1 << 17);
  const std::uint64_t seed = cli.get_int("seed", 1995);

  bench::Obs obs(cli, "Ablation A2 (hash degree vs stride)",
                "Max bank load and time for strided patterns under each "
                "mapping; banks = " + std::to_string(cfg.banks()) +
                    ", machine = " + cfg.name);

  const char* mapping_names[] = {"interleaved", "bit-reversal", "linear",
                                 "quadratic", "cubic"};
  for (const std::uint64_t stride :
       {std::uint64_t{1}, cfg.banks() / 2, cfg.banks(), 2 * cfg.banks(),
        std::uint64_t{3}, std::uint64_t{257}}) {
    const auto addrs = workload::strided(n, stride);
    util::Table t({"mapping (stride=" + std::to_string(stride) + ")",
                   "max bank load", "cycles", "cyc/elt"});
    for (const char* name : mapping_names) {
      util::Xoshiro256 rng(util::substream(seed, 80));
      sim::Machine machine(cfg, mem::make_mapping(name, cfg.banks(), rng));
      obs.attach(machine);
      const auto meas = machine.scatter(addrs);
      t.add_row(name, meas.mapped_bank_load, meas.cycles,
                meas.cycles_per_element());
    }
    bench::emit(cli, t);
  }
  return obs.finish();
}
