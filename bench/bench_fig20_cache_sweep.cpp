// Fig 20 (repo extension): the C x X x D trade-off surface of the
// per-processor cache tier (src/cache/, docs/cache.md).
//
// The paper's design question was "how many banks should a machine with
// bank delay d provide?" — expansion x was the only lever against bank
// contention. A cache tier of C lines in front of the banks adds a
// second lever: hits complete locally and never enter the bank/network
// pipeline, so growing C thins the very traffic x exists to spread.
// This bench sweeps C x x x d over four access patterns (uniform,
// hot-set, Zipf, streaming scan) and reports, per point, which memory
// resource the makespan-critical request spent its time in — the
// attribution breakdown's bank_service vs wire latency vs cache_hit
// (docs/observability.md §attribution). For cacheable working sets the
// binding term flips from bank_service at C = 0 to cache_hit once C
// covers the working set: past that point more banks buy nothing, the
// machine is locality-bound, not contention-bound.
//
// Runs under SweepRunner (keys encode the grid point; records hold the
// full telemetry) so --checkpoint/--resume/--threads work and a resumed
// run prints byte-identical output.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/drift.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

namespace {

using namespace dxbsp;

constexpr const char* kPatterns[] = {"uniform", "hotset", "zipf", "scan"};
constexpr std::uint64_t kDelays[] = {4, 14};
constexpr std::uint64_t kExpansions[] = {4, 16};
constexpr std::uint64_t kCapacities[] = {0, 16, 64, 512};

std::vector<std::uint64_t> make_pattern(std::size_t pat, std::uint64_t n,
                                        std::uint64_t seed) {
  switch (pat) {
    case 0: return workload::uniform_random(n, 1ULL << 30, seed);
    case 1: return workload::cyclic(n, 512);  // 64-line hot working set
    case 2: return workload::zipf(n, 1ULL << 20, 1.1, seed);
    default: return workload::strided(n, 1);  // streaming scan
  }
}

/// Grid-point key: dense mixed radix so resume files are stable as long
/// as the grid tables above are.
std::uint64_t encode(std::size_t pat, std::size_t di, std::size_t xi,
                     std::size_t ci) {
  return ((pat * 2 + di) * 2 + xi) * 4 + ci;
}

/// The memory-side term the critical request is bound by: the largest of
/// bank service (incl. failover spares), wire latency, and local cache
/// service. Ties break toward the slower resource so C = 0 on an
/// uncontended machine reads "latency", never "cache_hit".
const char* binding_term(const obs::CostBreakdown& b) {
  const std::uint64_t bank = b.bank_service + b.failover;
  if (bank >= b.latency && bank >= b.cache_hit) return "bank_service";
  if (b.latency >= b.cache_hit) return "latency";
  return "cache_hit";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dxbsp;
  return bench::guarded([&] {
    const util::Cli cli(argc, argv);
    const auto base = bench::machine_from_cli(cli);
    const std::uint64_t n = cli.get_uint("n", 1 << 15);
    const std::uint64_t seed = cli.get_uint("seed", 1995);

    bench::Obs obs(cli, "Fig 20 / cache tier",
                   "Binding resource across C x x x d; n = " +
                       std::to_string(n) + ", base machine = " + base.name);

    std::vector<std::uint64_t> keys;
    for (std::size_t pat = 0; pat < 4; ++pat)
      for (std::size_t di = 0; di < 2; ++di)
        for (std::size_t xi = 0; xi < 2; ++xi)
          for (std::size_t ci = 0; ci < 4; ++ci)
            keys.push_back(encode(pat, di, xi, ci));

    const auto config_at = [&](std::uint64_t key) {
      sim::MachineConfig cfg = base;
      cfg.bank_delay = kDelays[(key / 8) % 2];
      cfg.expansion = kExpansions[(key / 4) % 2];
      cfg.cache.capacity = kCapacities[key % 4];
      cfg.cache.line_words = 8;
      cfg.cache.assoc = 8;
      // Write-back: dirty-eviction traffic is modelled, and the
      // hit-ratio-corrected predictor's in-band claim is write-back
      // scoped (docs/cache.md §prediction).
      cfg.cache.write = cfg.cache.enabled() ? cache::WritePolicy::kBack
                                            : cfg.cache.write;
      cfg.validate();
      return cfg;
    };

    svc::WorkerContext worker;
    auto opt = bench::sweep_options_from_cli(cli);
    const std::uint64_t id = bench::apply_sharding(
        worker, cli,
        resilience::sweep_id("fig20_cache",
                             {n, seed, base.processors, base.gap,
                              base.latency}),
        keys, opt, obs);
    resilience::SweepRunner runner(id, std::move(opt));
    worker.begin(runner.token());
    const auto report = runner.run(keys, [&](std::uint64_t key) {
      const auto cfg = config_at(key);
      const auto addrs = make_pattern((key / 16) % 4, n, seed);
      sim::Machine machine(cfg);
      machine.set_cancel(&runner.token());
      obs.attach(machine, key);
      resilience::SnapshotRecord rec;
      rec.key = key;
      rec.rng_state = seed;
      rec.result = machine.scatter(addrs);
      return rec;
    });
    if (worker.active())
      return obs.finish(worker.finish(report));
    if (!report.ok()) return obs.finish(bench::finish_sweep(report));

    util::Table t({"pattern", "d", "x", "C", "cycles", "hit%", "bank_svc",
                   "latency", "cache_hit", "binds", "predicted", "rel err"});
    std::uint64_t crossovers = 0;
    for (std::size_t pat = 0; pat < 4; ++pat) {
      for (std::size_t di = 0; di < 2; ++di) {
        for (std::size_t xi = 0; xi < 2; ++xi) {
          const char* first_binds = nullptr;
          const char* last_binds = nullptr;
          std::uint64_t flip_c = 0;
          for (std::size_t ci = 0; ci < 4; ++ci) {
            const auto& rec = runner.record(encode(pat, di, xi, ci));
            const auto& meas = rec.result;
            const auto cfg = config_at(rec.key);
            const obs::CacheObserved co{meas.cache_hits, meas.cache_misses,
                                        meas.max_proc_miss};
            const double predicted = obs::drift_prediction(
                cfg, nullptr, n, meas.max_proc_requests, meas.max_bank_load,
                meas.max_location_contention, &co);
            const double rel_err =
                predicted > 0.0
                    ? static_cast<double>(meas.cycles) / predicted - 1.0
                    : 0.0;
            const char* binds = binding_term(meas.breakdown);
            const double hit_pct =
                meas.n == 0 ? 0.0
                            : 100.0 * static_cast<double>(meas.cache_hits) /
                                  static_cast<double>(meas.n);
            t.add_row(kPatterns[pat], cfg.bank_delay, cfg.expansion,
                      cfg.cache.capacity, meas.cycles, hit_pct,
                      meas.breakdown.bank_service + meas.breakdown.failover,
                      meas.breakdown.latency, meas.breakdown.cache_hit,
                      binds, predicted, rel_err);
            if (ci == 0) first_binds = binds;
            if (std::string(binds) == "cache_hit" && flip_c == 0)
              flip_c = cfg.cache.capacity;
            last_binds = binds;
          }
          if (std::string(first_binds) == "bank_service" &&
              std::string(last_binds) == "cache_hit") {
            ++crossovers;
            std::cout << "crossover: pattern=" << kPatterns[pat]
                      << " d=" << kDelays[di] << " x=" << kExpansions[xi]
                      << " binding flips bank_service -> cache_hit at C="
                      << flip_c << "\n";
          }
        }
      }
    }
    std::cout << "\n";
    bench::emit(cli, t);
    std::cout << "crossovers: " << crossovers << " of 16 series\n"
              << "reading: past the flip the machine is locality-bound — "
                 "more banks (x) buy nothing,\nonly more cache (C) or "
                 "better placement does (docs/cache.md).\n";
    return obs.finish();
  });
}
