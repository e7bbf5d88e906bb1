// SVC scaling: does the fleet coordinator scale the way a master–worker
// system should?
//
// Sokolinsky's BSF model (arXiv:1704.05816) gives the cost of a
// master–worker bulk-synchronous program as per-unit master overhead
// plus the parallelised work:
//     T(K) = S·o + ceil(S/K)·w
// for S work units (shards), K workers, per-shard work time w and
// per-shard master overhead o (lease grant, heartbeat watching, result
// merge). This bench runs the SAME sharded sweep under the coordinator
// at K = 1, 2, 4 workers, fits w from the K=1 run's per-shard elapsed
// times and o from its residual, and checks the measured K>1 wall
// clocks land within a band of the model's prediction — the coordinator
// is allowed protocol overhead, but not overhead that *grows* with
// worker count (which would read as a fleet that cannot scale).
//
// The bench is its own worker: re-invoked with --svc-lease it runs one
// shard of a uniform-scatter sweep (each point a pure function of its
// key, like every SweepRunner grid).
//
// Wall-clock timing is host-dependent (a busy host alone can double a
// ratio), so a band miss is printed under the table and gates — exit 70,
// internal invariant — only when --band=X is given (the default band,
// 0.5, is informational). The check only arms when the K=1 fleet ran
// longer than --min-measure seconds (default 0.2); below that, timing
// noise dominates and the bench reports the table without checking.

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "svc/coordinator.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  return bench::guarded([&] {
    const util::Cli cli(argc, argv);
    const auto cfg = bench::machine_from_cli(cli);
    const std::uint64_t points = cli.get_uint("points", 12);
    const std::uint64_t n = cli.get_uint("n", 1 << 18);
    const std::uint64_t seed = cli.get_uint("seed", 1995);

    bench::Obs obs(cli, "SVC scaling",
                   "fleet wall clock vs the BSF master-worker model; " +
                       std::to_string(points) + " points, n = " +
                       std::to_string(n) + ", machine = " + cfg.name);

    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < points; ++k) keys.push_back(k);

    // Worker mode: run (a shard of) the sweep and return through the
    // lease protocol. The coordinator mode below spawns these.
    if (cli.has("svc-lease") || cli.has("shard")) {
      svc::WorkerContext worker;
      auto opt = bench::sweep_options_from_cli(cli);
      const std::uint64_t id = bench::apply_sharding(
          worker, cli,
          resilience::sweep_id("svc_scaling",
                               {points, n, seed, cfg.processors,
                                cfg.bank_delay}),
          keys, opt, obs);
      resilience::SweepRunner runner(id, std::move(opt));
      worker.begin(runner.token());
      const auto report = runner.run(keys, [&](std::uint64_t key) {
        const auto addrs =
            workload::uniform_random(n, 1ULL << 30, seed + key);
        sim::Machine machine(cfg);
        machine.set_cancel(&runner.token());
        obs.attach(machine, key);
        resilience::SnapshotRecord rec;
        rec.key = key;
        rec.rng_state = seed + key;
        rec.result = machine.scatter(addrs);
        return rec;
      });
      if (worker.active())
        return obs.finish(worker.finish(report));
      return obs.finish(bench::finish_sweep(report));
    }

    // Coordinator mode: the same fleet at increasing worker counts.
    const std::uint64_t shards = cli.get_uint("shards", 4);
    const bool gate = cli.has("band");
    const double band = cli.get_double("band", 0.5);
    const double min_measure = cli.get_double("min-measure", 0.2);
    const std::string dir = cli.get("dir", "svc-scaling");
    const std::uint64_t hw =
        std::max(1u, std::thread::hardware_concurrency());

    // Run K beyond the core count too: workers then timeshare, so the
    // model's effective parallelism is min(K, cores) — measured time
    // should stay FLAT, and a coordinator whose own overhead grew with
    // K would still blow the band.
    std::vector<std::uint64_t> worker_counts;
    for (const std::uint64_t k : {1ULL, 2ULL, 4ULL})
      if (k <= shards) worker_counts.push_back(k);

    std::vector<std::string> worker_argv = {
        cli.program(), "--points=" + std::to_string(points),
        "--n=" + std::to_string(n), "--seed=" + std::to_string(seed)};
    if (!cli.get("machine", "").empty())
      worker_argv.push_back("--machine=" + cli.get("machine", ""));

    std::vector<double> measured;
    double w_fit = 0;  // mean per-shard work time, from K=1
    for (const std::uint64_t k : worker_counts) {
      svc::CoordinatorOptions copt;
      copt.worker_argv = worker_argv;
      copt.dir = dir + "-w" + std::to_string(k);
      copt.workers = k;
      copt.shards = shards;
      copt.heartbeat_timeout_seconds = cli.get_double("hb-timeout", 10.0);
      const svc::FleetReport fleet = svc::Coordinator(std::move(copt)).run();
      if (!fleet.ok())
        raise(ErrorCode::kInternal,
              "svc_scaling: fleet at K=" + std::to_string(k) +
                  " did not complete cleanly");
      measured.push_back(fleet.elapsed_seconds);
      if (k == 1) {
        double sum = 0;
        for (const double e : fleet.shard_elapsed_seconds) sum += e;
        w_fit = sum / static_cast<double>(shards);
      }
    }

    // Fit o from the K=1 residual: T(1) = S·o + S·w.
    const double t1 = measured.front();
    const double o_fit = std::max(
        0.0, (t1 - static_cast<double>(shards) * w_fit) /
                 static_cast<double>(shards));

    const bool armed = t1 >= min_measure;
    std::size_t violations = 0;
    util::Table t({"workers", "shards", "measured s", "model s",
                   "meas/model", "speedup"});
    for (std::size_t i = 0; i < worker_counts.size(); ++i) {
      const std::uint64_t k = worker_counts[i];
      const std::uint64_t eff = std::min(worker_counts[i], hw);
      const std::uint64_t rounds = (shards + eff - 1) / eff;  // ceil(S/K_eff)
      const double model = static_cast<double>(shards) * o_fit +
                           static_cast<double>(rounds) * w_fit;
      const double ratio = model > 0 ? measured[i] / model : 1.0;
      if (armed && std::abs(ratio - 1.0) > band) ++violations;
      t.add_row(k, shards, measured[i], model, ratio, t1 / measured[i]);
    }
    bench::emit(cli, t);
    std::cout << "BSF fit: w = " << w_fit << "s/shard, o = " << o_fit
              << "s/shard; band = " << band
              << (armed ? "" : "  (below --min-measure: model check "
                               "disarmed, table informational)")
              << "\n";
    if (violations > 0) {
      const std::string miss = "svc_scaling: " +
                               std::to_string(violations) +
                               " worker count(s) outside the BSF model "
                               "band " + std::to_string(band);
      if (gate) raise(ErrorCode::kInternal, miss);
      std::cout << "BAND MISS: " << miss
                << " (informational; --band=X gates it)\n";
    }
    return obs.finish();
  });
}
