// trace_replay: analyze and replay a recorded memory access trace.
//
// The paper's methodology in tool form: feed a trace (extracted from a
// real program, or produced by this library's workload generators) to
// the analyzer, get its contention profile, and see predicted and
// simulated time on any machine. With no --trace argument a
// demonstration trace is generated, saved, reloaded and replayed, so the
// example is self-contained.
//
//   ./trace_replay [--trace=path.bin|path.txt] [--machine-spec=j90,d=20]

#include <fstream>
#include <iostream>

#include "core/design.hpp"
#include "core/predictor.hpp"
#include "sim/machine.hpp"
#include "stats/histogram.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);

  std::vector<std::uint64_t> trace;
  std::string source;
  if (cli.has("trace")) {
    const std::string path = cli.get("trace", "");
    if (path.size() > 4 && path.substr(path.size() - 4) == ".txt") {
      std::ifstream is(path);
      if (!is) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
      }
      trace = workload::load_trace_text(is);
    } else {
      trace = workload::load_trace(path);
    }
    source = path;
  } else {
    // Self-contained demo: generate, save, reload.
    trace = workload::multi_hot(1 << 18, 4, 1 << 12, 1ULL << 30, 42);
    const std::string path = "/tmp/dxbsp_demo_trace.bin";
    workload::save_trace(path, trace);
    trace = workload::load_trace(path);
    source = path + " (generated demo trace)";
  }

  std::cout << "trace: " << source << " — " << trace.size()
            << " requests\n\n";

  // Contention profile.
  const auto spectrum = stats::contention_spectrum(trace);
  std::uint64_t k_max = 0, distinct = 0;
  for (const auto& [mult, count] : spectrum) {
    k_max = std::max(k_max, mult);
    distinct += count;
  }
  std::cout << "distinct locations: " << distinct
            << ", max contention k = " << k_max
            << ", entropy = " << stats::shannon_entropy(trace) << " bits\n\n";

  // Replay on the requested machine(s).
  const auto spec = cli.get("machine-spec", "");
  std::vector<sim::MachineConfig> machines;
  if (!spec.empty()) {
    machines.push_back(sim::MachineConfig::parse(spec));
  } else {
    machines = sim::MachineConfig::table1_presets();
  }

  util::Table t({"machine", "simulated", "dxbsp", "bsp", "dxbsp/sim",
                 "bsp/sim", "cyc/elt"});
  for (const auto& cfg : machines) {
    sim::Machine machine(cfg);
    const auto meas = machine.scatter(trace);
    const auto pred = core::predict(meas, cfg);
    t.add_row(cfg.name, meas.cycles, pred.dxbsp_mapped, pred.bsp,
              static_cast<double>(pred.dxbsp_mapped) / meas.cycles,
              static_cast<double>(pred.bsp) / meas.cycles,
              meas.cycles_per_element());
  }
  t.print(std::cout);

  // Design advice for this trace.
  const auto& cfg0 = machines.front();
  const auto rec = core::recommend_expansion(
      trace.size(), k_max, core::DxBspParams::from_config(cfg0));
  std::cout << "\ndesign advice on " << cfg0.name
            << " parameters: throughput needs x >= " << rec.x_throughput
            << ", tail flattens by x = " << rec.x_tail << " (recommend x = "
            << rec.x_recommended << ")";
  if (rec.contention_limited) {
    std::cout << "\nWARNING: this trace is contention-limited (d*k >= g*n/p)"
                 " — no bank count fixes it; restructure the hot location "
                 "(replication, combining, QRQW-style retry).";
  }
  std::cout << "\n";
  return 0;
}
