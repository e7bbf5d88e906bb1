// Streaming-executor pressure harness (docs/streaming.md).
//
// Two modes:
//
//   sweep (default)     — runs the same stream fully in RAM and then at
//                         budgets of 1/2, 1/4 and 1/8 of the data size,
//                         each in its own spill subdirectory, and checks
//                         the result checksum never moves: spilling is a
//                         memory regime, not a different computation.
//
//   single (--mem-budget=BYTES) — one run under the given budget,
//                         printing the per-partition table and a
//                         canonical "STREAM OK" line. --out=PATH writes
//                         just the canonical part (table + STREAM OK) to
//                         a file, which is what ci.sh `cmp`s between
//                         in-RAM / spilled / crash-resumed runs.
//
// Robustness flags: --faults (disk=... grammar injects spill-device
// misbehaviour; memory-system keys also degrade the machine), --chaos
// (phase=spill:K / point:K crash or hang scripts), --checkpoint /
// --resume (partition bank), --deadline, --stall-timeout (stall window).
// A persistently failing spill tier ends the run with a structured
// "STREAM DEGRADED" line and exit 69; a revoked hang exits 75.
//
// The footer reports vm_peak_kb / peak_rss_kb (host memory, for the
// ulimit -v smoke stage) — host-varying, so never part of --out.

#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "stream/executor.hpp"
#include "svc/chaos.hpp"

namespace {

using namespace dxbsp;

std::uint64_t vm_peak_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmPeak:", 0) == 0)
      return std::strtoull(line.c_str() + 7, nullptr, 10);
  return 0;
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/// The canonical, budget-invariant view of one run: the per-partition
/// table plus the totals line. Byte-identical for any budget / spill /
/// resume path of the same stream config.
std::string canonical(const stream::StreamResult& r) {
  std::ostringstream os;
  util::Table t({"partition", "slabs", "elements", "cycles", "max bank load",
                 "completed", "checksum"});
  for (const stream::PartitionResult& p : r.partitions)
    t.add_row(p.partition, p.slabs, p.elements, p.cycles, p.max_bank_load,
              p.completed, p.checksum);
  t.print(os);
  os << "STREAM OK elements=" << r.elements << " cycles=" << r.cycles
     << " max_bank_load=" << r.max_bank_load << " completed=" << r.completed
     << " checksum=" << r.checksum << "\n";
  return os.str();
}

void print_memory_line(const stream::StreamResult& r) {
  std::cout << "MEMORY budget=" << r.budget_bytes << " peak=" << r.peak_bytes
            << " spilled_bytes=" << r.spilled_bytes
            << " chunks=" << r.spill_chunks
            << " back_pressure=" << r.back_pressure_events
            << " resumed_partitions=" << r.partitions_resumed
            << " spilled=" << (r.spilled ? 1 : 0) << "\n";
}

void print_host_line() {
  std::cout << "HOST vm_peak_kb=" << vm_peak_kb()
            << " peak_rss_kb=" << peak_rss_kb() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded([&] {
    const util::Cli cli(argc, argv);
    const auto cfg = bench::machine_from_cli(cli);

    stream::StreamConfig scfg = stream::StreamConfig::from_cli(cli);
    if (scfg.n == 0) scfg.n = std::uint64_t{1} << 16;
    if (scfg.space == 0) scfg.space = cfg.banks() * 1024;
    if (!cli.has("slab-bytes")) scfg.slab_bytes = std::uint64_t{64} << 10;

    bench::Obs obs(cli, "stream pressure",
                   "Out-of-core streaming under a hard memory budget: "
                   "spill, back-pressure, disk faults; n = " +
                       std::to_string(scfg.n) + ", machine = " + cfg.name);

    // Fault plan: the disk grammar lands on the spill tier; any
    // memory-system keys in the same spec degrade the machine too.
    std::shared_ptr<fault::FaultPlan> plan;
    bool machine_faults = false;
    const std::string fault_spec = cli.get("faults", "");
    if (!fault_spec.empty()) {
      const fault::FaultConfig fc = fault::FaultConfig::parse(fault_spec);
      plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());
      machine_faults = fc.any();
    }
    const svc::ChaosPlan chaos = svc::ChaosPlan::parse(cli.get("chaos", ""));

    resilience::CancelToken token;
    resilience::ScopedSignalCancel on_signal(token);
    const double deadline = cli.get_double("deadline", 0.0);
    if (deadline > 0.0) token.set_deadline(resilience::Deadline(deadline));
    token.set_stall(cli.get_double("stall-timeout", 0.0));

    sim::Machine machine(cfg);
    obs.attach(machine, 0);
    machine.set_cancel(&token);
    if (plan && machine_faults) machine.inject(plan);

    stream::StreamHooks hooks;
    hooks.cancel = &token;
    hooks.trace = machine.tracer();
    hooks.faults = plan.get();
    hooks.chaos = chaos.empty() ? nullptr : &chaos;

    const auto run_one = [&](const stream::StreamConfig& c) {
      return stream::StreamExecutor(c, machine, hooks).run();
    };

    if (scfg.mem_budget != 0 || cli.get("spill-dir", "").empty()) {
      // ---- Single-run mode -------------------------------------------
      stream::StreamResult r;
      try {
        r = run_one(scfg);
      } catch (const Error& e) {
        if (e.code() == ErrorCode::kDegraded) {
          std::cout << "STREAM DEGRADED cause=\"" << e.what() << "\"\n";
          print_host_line();
          return obs.finish(exit_code(e.code()));
        }
        if (e.code() == ErrorCode::kInterrupted) {
          std::cout << "STREAM INTERRUPTED cause="
                    << resilience::cancel_cause_name(token.cause()) << "\n";
          print_host_line();
          return obs.finish(exit_code(e.code()));
        }
        throw;
      }
      const std::string canon = canonical(r);
      std::cout << canon;
      print_memory_line(r);
      print_host_line();
      const std::string out_path = cli.get("out", "");
      if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
          raise(ErrorCode::kIo, "cannot open --out file " + out_path);
        out << canon;
      }
      return obs.finish(0);
    }

    // ---- Sweep mode: in-RAM baseline, then shrinking budgets ---------
    const std::uint64_t data_bytes = scfg.n * sizeof(std::uint64_t);
    stream::StreamConfig base = scfg;
    base.mem_budget = 0;
    base.spill_dir.clear();
    const stream::StreamResult baseline = run_one(base);

    util::Table t({"budget bytes", "peak bytes", "spilled bytes", "chunks",
                   "back-pressure", "cycles", "checksum", "match"});
    t.add_row(std::uint64_t{0}, baseline.peak_bytes, baseline.spilled_bytes,
              baseline.spill_chunks, baseline.back_pressure_events,
              baseline.cycles, baseline.checksum, "base");
    bool all_match = true;
    for (const std::uint64_t ratio : {2ULL, 4ULL, 8ULL}) {
      stream::StreamConfig c = scfg;
      c.mem_budget = std::max(c.slab_bytes, data_bytes / ratio);
      c.spill_dir = scfg.spill_dir + "/r" + std::to_string(ratio);
      const stream::StreamResult r = run_one(c);
      const bool match = r.checksum == baseline.checksum &&
                         r.elements == baseline.elements &&
                         r.cycles == baseline.cycles;
      all_match = all_match && match;
      t.add_row(c.mem_budget, r.peak_bytes, r.spilled_bytes, r.spill_chunks,
                r.back_pressure_events, r.cycles, r.checksum,
                match ? "yes" : "NO");
      if (r.peak_bytes > c.mem_budget + c.slab_bytes)
        raise(ErrorCode::kInternal,
              "MemoryInvariant violated: peak " + std::to_string(r.peak_bytes) +
                  " > budget " + std::to_string(c.mem_budget) + " + slab " +
                  std::to_string(c.slab_bytes));
    }
    bench::emit(cli, t);
    if (!all_match) {
      std::cout << "RESULT MISMATCH: a budgeted run diverged from the "
                   "in-RAM baseline\n";
      return obs.finish(exit_code(ErrorCode::kInternal));
    }
    std::cout << "all budgeted runs byte-equivalent to the in-RAM baseline;\n"
                 "peak tracked memory stayed within budget + one slab "
                 "(the TLA MemoryInvariant) at every budget.\n";
    print_host_line();
    return obs.finish(0);
  });
}
