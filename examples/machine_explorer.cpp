// machine_explorer: find the expansion factor a workload actually needs.
//
// Sweeps the number of banks for a user-described workload (request
// volume + hottest-location contention) and reports where adding banks
// stops paying — the paper's design question ("how many banks should a
// machine with bank delay d provide?") answered per-workload. Uses both
// the analytic balls-in-bins model and the simulator.
//
//   ./machine_explorer [--n=1048576] [--k=1024] [--d=14] [--p=8]
//                      [--faults=slow=0.25,slow-mult=4,drop=0.01,...]
//                      [--cache=LINES] [--cache-line=WORDS]
//                      [--cache-write=through|back]
//                      [--explain] [--trace=PATH] [--trace-capacity=N]
//                      [--metrics=PATH]
//
// With --cache= every sweep point runs behind a per-processor cache
// tier of that many lines (docs/cache.md); the --explain table then
// shows the cache_hit term and scores each point against the
// hit-ratio-corrected predictor.
//
// With --faults= the sweep runs against a seeded fault plan
// (see fault::FaultConfig::parse for the key set) and reports the
// degraded telemetry next to the healthy prediction.
//
// --explain prints a second table decomposing each sweep point's
// makespan into the attribution terms (docs/observability.md
// §attribution) next to the model prediction it is scored against —
// the per-superstep view of where the cycles went.
//
// --trace writes a Chrome trace_event JSON of every simulated sweep
// point (one track per expansion x; open in Perfetto), --trace-capacity
// bounds the retained events per track (default 65536, must be > 0),
// and --metrics dumps the full metrics registry (docs/observability.md).

#include <iostream>
#include <memory>

#include "core/balls_bins.hpp"
#include "resilience/error.hpp"
#include "core/predictor.hpp"
#include "fault/fault_plan.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "stats/degraded.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

static int run(int argc, char** argv);

int main(int argc, char** argv) {
  using namespace dxbsp;
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    // Structured diagnostics: a bad flag, fault spec, or config exits
    // with the taxonomy's code instead of an unhandled-exception abort.
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  }
}

static int run(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 1 << 18);
  const std::uint64_t k = cli.get_int("k", 1 << 10);
  const std::uint64_t d = cli.get_int("d", 14);
  const std::uint64_t p = cli.get_int("p", 8);
  const std::string fault_spec = cli.get("faults", "");
  const bool faulty = !fault_spec.empty();
  fault::FaultConfig fc;
  if (faulty) fc = fault::FaultConfig::parse(fault_spec);
  const std::string trace_path = cli.get("trace", "");
  const std::string metrics_path = cli.get("metrics", "");
  const bool explain = cli.has("explain");
  // Strict parse (trailing garbage / negatives raise kParse naming the
  // flag); 0 would silently drop every event, so reject it loudly too.
  const std::uint64_t trace_capacity =
      cli.get_uint("trace-capacity", std::uint64_t{1} << 16);
  if (trace_capacity == 0)
    raise(ErrorCode::kConfig,
          "--trace-capacity must be > 0 (0 would retain no events)");
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty())
    tracer = std::make_unique<obs::Tracer>(
        static_cast<std::size_t>(trace_capacity));
  obs::MetricsRegistry::global().reset();

  std::cout << "Workload: n = " << n << " requests, hottest location k = "
            << k << "; machine: p = " << p << ", g = 1, d = " << d << "\n";
  if (faulty)
    std::cout << "Faults: " << fault_spec
              << " (seeded plan; see docs/faults.md)\n";
  std::cout << "\n";

  const auto addrs = workload::k_hot(n, k, 1ULL << 30, /*seed=*/21);
  util::Table t(
      faulty ? std::vector<std::string>{"x", "banks", "sim cycles",
                                        "degraded pred", "retries",
                                        "failovers", "marginal speedup",
                                        "verdict"}
             : std::vector<std::string>{"x", "banks", "sim cycles", "dxbsp",
                                        "marginal speedup", "verdict"});
  util::Table ex({"x", "cycles", "issue_gap", "window_stall", "latency",
                  "bank_service", "retry_backoff", "failover", "cache_hit",
                  "k", "bank p50", "bank p99", "bank max", "predicted",
                  "rel err"});
  std::uint64_t prev = 0;
  std::uint64_t chosen = 0;
  for (std::uint64_t x = 1; x <= 256; x *= 2) {
    sim::MachineConfig cfg;
    cfg.name = "explore";
    cfg.processors = p;
    cfg.gap = 1;
    cfg.latency = 30;
    cfg.bank_delay = d;
    cfg.expansion = x;
    cfg.slackness = 64 * 1024;
    cfg.cache.capacity = cli.get_uint("cache", 0);
    cfg.cache.line_words = cli.get_uint("cache-line", 8);
    if (cli.has("cache-write"))
      cfg.cache.write = cli.get("cache-write", "through") == "back"
                            ? cache::WritePolicy::kBack
                            : cache::WritePolicy::kThrough;
    cfg.validate();
    sim::Machine machine(cfg);
    if (tracer) machine.set_tracer(&tracer->track(x));
    sim::BulkResult meas;
    std::string status;
    std::uint64_t degraded_pred = 0;
    std::shared_ptr<fault::FaultPlan> plan;
    if (faulty) {
      plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());
      machine.inject(plan);
      auto out = machine.scatter_faulty(addrs);
      meas = out.bulk;
      status = out.ok() ? "" : " [DEGRADED]";
      degraded_pred = static_cast<std::uint64_t>(
          stats::predict_degraded(cfg, *plan, n).cycles);
    } else {
      meas = machine.scatter(addrs);
    }
    if (explain) {
      const obs::CacheObserved co{meas.cache_hits, meas.cache_misses,
                                  meas.max_proc_miss};
      const double predicted = obs::drift_prediction(
          cfg, plan.get(), n, meas.max_proc_requests, meas.max_bank_load,
          meas.max_location_contention, &co);
      const double rel_err =
          predicted > 0.0
              ? static_cast<double>(meas.cycles) / predicted - 1.0
              : 0.0;
      const obs::CostBreakdown& b = meas.breakdown;
      ex.add_row(x, meas.cycles, b.issue_gap, b.window_stall, b.latency,
                 b.bank_service, b.retry_backoff, b.failover, b.cache_hit,
                 meas.max_location_contention, meas.bank_sketch.p50(),
                 meas.bank_sketch.p99(), meas.bank_sketch.max, predicted,
                 rel_err);
    }
    const auto pred = core::predict(meas, cfg);
    const double marginal =
        prev == 0 ? 1.0
                  : static_cast<double>(prev) /
                        static_cast<double>(meas.cycles);
    const bool worth = marginal > 1.02;
    if (!worth && chosen == 0 && prev != 0) chosen = x / 2;
    const std::string verdict =
        (prev == 0 ? std::string("-")
                   : (worth ? "still paying" : "diminishing")) +
        status;
    if (faulty) {
      t.add_row(x, cfg.banks(), meas.cycles, degraded_pred, meas.retries,
                meas.failovers, marginal, verdict);
    } else {
      t.add_row(x, cfg.banks(), meas.cycles, pred.dxbsp_mapped, marginal,
                verdict);
    }
    prev = meas.cycles;
  }
  t.print(std::cout);

  if (explain) {
    std::cout << "\nCost attribution per sweep point (cycles; terms sum to "
                 "the measured makespan,\nprediction per "
                 "docs/observability.md §drift):\n";
    ex.print(std::cout);
  }

  if (chosen == 0) chosen = 256;
  std::cout << "\nrecommended expansion for this workload: x ~ " << chosen
            << " (natural balance point would be x = d/g = " << d << ")\n"
            << "analytic limit for pure-random patterns: x = "
            << core::effective_expansion_limit(n, p, 1, d, 1024) << "\n"
            << "note: location contention k caps what banks can do — the "
               "d*k term\nis mapping-independent, so past the balance point "
               "the win comes only\nfrom thinning the random module-map "
               "tail.\n";

  if (tracer)
    obs::write_file(trace_path,
                    [&](std::ostream& os) { tracer->write_chrome_json(os); });
  if (!metrics_path.empty())
    obs::write_file(metrics_path, [&](std::ostream& os) {
      obs::MetricsRegistry::global().write_json(os, /*include_host=*/true);
    });
  return 0;
}
