// Per-layer host cost of the contention analysis behind every bulk op.
//
// The (d,x)-BSP cost of a bulk op needs two numbers: the location
// contention k (mem::analyze_locations, i.e. util::MultiplicityCounter)
// and the mapped bank load h_bank (mem::analyze_banks). This binary
// times each layer alone; core::predict_scatter, which composes them
// (the model-only path); and a simulated scatter followed by
// core::predict on its result, the one mapping-and-count pass of a
// simulate-then-predict caller. Sizes are n = 2^14, 2^16 and 2^20 on a
// uniform trace and a k-hot trace (one location takes n/256 requests,
// the rest are distinct; the perfbench scatter_large pattern), on the
// p=64, x=4, d=8 machine. Reported as items_per_second; ns/element is
// its inverse.
//
// util.multiplicity/TRACE/N is the counter sweep of docs/performance.md
// (its tables read --benchmark_filter=^util.multiplicity/, with the
// method stated there): TRACE is uniform, khot, multihot (64 hot
// locations taking n/1024 requests each, the perfbench pattern) or x64
// (every key of [0, n/64) exactly 64 times, shuffled), and N is 2^14,
// 2^16, 2^17, 2^18, 2^20 and 2^22, which puts every partition layout
// the counter uses (one partition, one scatter pass, two) on each trace.
// hot16 and hot4 are fig4's heavy hot spots (one location taking n/16
// or n/4 of the requests) at N = 2^20 and 2^22: their hot level-1
// partition is several times the average.
//
// scatter_soa/BANKS times the SoA bank-service kernel across bank
// counts: a Machine::scatter of 2^20 uniform addresses on p=64, d=8,
// with x = BANKS/64 for BANKS in {2^8, 2^15, 2^16, 2^18, 2^20} and the
// engine left on auto (which picks SoA). docs/performance.md §soa reads
// it with --benchmark_filter=scatter_soa --benchmark_repetitions=15.
//
// scheduled.combine/N and cache_tier/WAYS/CAP time two slots of the
// perfbench scatter_scheduled workload on their own (p=16, x=4, d=4,
// g=1, L=8, engine on auto, which schedules them on the calendar wheel
// and the heap). scheduled.combine is the combining slot (S=512, one
// location taking N/32 of N requests) for N = 2^14 .. 2^18: its cost
// per request should not grow with N, as the combining table holds
// only the op's repeated addresses. cache_tier is the cache-tier slot
// (S=64, a Zipf(0.9) trace of 2^17 requests over 2^16 words, 8-word
// lines) with a tier of CAP = 256 or 1024 lines, direct-mapped, 8-way
// or fully associative (one set that every access scans).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "mem/bank_mapping.hpp"
#include "mem/contention.hpp"
#include "sim/machine.hpp"
#include "sim/machine_config.hpp"
#include "util/multiplicity.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace {

using namespace dxbsp;

constexpr std::uint64_t kSpace = std::uint64_t{1} << 30;

sim::MachineConfig machine() {
  return sim::MachineConfig::parse("p=64,x=4,d=8,g=1,L=8");
}

std::vector<std::uint64_t> trace(std::int64_t n, bool k_hot) {
  const auto un = static_cast<std::uint64_t>(n);
  return k_hot ? workload::k_hot(un, un / 256, kSpace, 1995)
               : workload::uniform_random(un, kSpace, 1995);
}

void set_items(benchmark::State& state, std::size_t n) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void bm_analyze_locations(benchmark::State& state, bool k_hot) {
  const auto addrs = trace(state.range(0), k_hot);
  for (auto _ : state)
    benchmark::DoNotOptimize(mem::analyze_locations(addrs));
  set_items(state, addrs.size());
}

void bm_analyze_banks(benchmark::State& state, bool k_hot,
                      const std::string& mapping_name) {
  const auto addrs = trace(state.range(0), k_hot);
  util::Xoshiro256 rng(7);
  const auto mapping = mem::make_mapping(mapping_name, machine().banks(), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(mem::analyze_banks(addrs, *mapping));
  set_items(state, addrs.size());
}

enum class CountTrace { kUniform, kKHot, kMultiHot, kX64, kHot16, kHot4 };

std::vector<std::uint64_t> count_trace(std::int64_t n, CountTrace t) {
  const auto un = static_cast<std::uint64_t>(n);
  switch (t) {
    case CountTrace::kUniform: return trace(n, false);
    case CountTrace::kKHot: return trace(n, true);
    case CountTrace::kMultiHot:
      return workload::multi_hot(un, 64, un / 1024, kSpace, 1995);
    case CountTrace::kX64: {
      auto keys = workload::cyclic(un, un / 64);
      workload::shuffle(keys, 1995);
      return keys;
    }
    case CountTrace::kHot16: return workload::k_hot(un, un / 16, kSpace, 1995);
    case CountTrace::kHot4: return workload::k_hot(un, un / 4, kSpace, 1995);
  }
  return {};
}

void bm_multiplicity(benchmark::State& state, CountTrace t) {
  const auto addrs = count_trace(state.range(0), t);
  util::MultiplicityCounter counter;
  for (auto _ : state) benchmark::DoNotOptimize(counter.count(addrs));
  set_items(state, addrs.size());
}

void bm_predict_scatter(benchmark::State& state, bool k_hot) {
  const auto addrs = trace(state.range(0), k_hot);
  const sim::MachineConfig cfg = machine();
  util::Xoshiro256 rng(7);
  const auto mapping = mem::make_mapping("linear", cfg.banks(), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::predict_scatter(addrs, cfg, mapping.get()));
  set_items(state, addrs.size());
}

void bm_scatter_then_predict(benchmark::State& state, bool k_hot) {
  const auto addrs = trace(state.range(0), k_hot);
  const sim::MachineConfig cfg = machine();
  util::Xoshiro256 rng(7);
  sim::Machine m(cfg, mem::make_mapping("linear", cfg.banks(), rng));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::predict(m.scatter(addrs), cfg));
  set_items(state, addrs.size());
}

void bm_scatter_soa(benchmark::State& state) {
  const auto banks = static_cast<std::uint64_t>(state.range(0));
  const auto addrs = trace(1 << 20, /*k_hot=*/false);
  sim::Machine m(sim::MachineConfig::parse(
      "p=64,x=" + std::to_string(banks / 64) + ",d=8,g=1,L=8"));
  for (auto _ : state) benchmark::DoNotOptimize(m.scatter(addrs));
  set_items(state, addrs.size());
}

void bm_scheduled_combine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto addrs = workload::k_hot(n, n / 32, kSpace, 1995);
  sim::Machine m(
      sim::MachineConfig::parse("p=16,x=4,d=4,g=1,L=8,S=512,combine=1"));
  for (auto _ : state) benchmark::DoNotOptimize(m.scatter(addrs));
  set_items(state, addrs.size());
}

void bm_cache_tier(benchmark::State& state, std::uint64_t assoc) {
  const auto addrs = workload::zipf(1 << 17, 1 << 16, 0.9, 1995);
  sim::Machine m(sim::MachineConfig::parse(
      "p=16,x=4,d=4,g=1,L=8,S=64,cache-line=8,cache=" +
      std::to_string(state.range(0)) +
      ",cache-assoc=" + std::to_string(assoc)));
  for (auto _ : state) benchmark::DoNotOptimize(m.scatter(addrs));
  set_items(state, addrs.size());
}

void register_all() {
  for (const auto& [name, t] :
       {std::pair{"uniform", CountTrace::kUniform},
        std::pair{"khot", CountTrace::kKHot},
        std::pair{"multihot", CountTrace::kMultiHot},
        std::pair{"x64", CountTrace::kX64}}) {
    benchmark::RegisterBenchmark(
        (std::string("util.multiplicity/") + name).c_str(), bm_multiplicity, t)
        ->Arg(1 << 14)
        ->Arg(1 << 16)
        ->Arg(1 << 17)
        ->Arg(1 << 18)
        ->Arg(1 << 20)
        ->Arg(1 << 22);
  }
  for (const auto& [name, t] : {std::pair{"hot16", CountTrace::kHot16},
                                std::pair{"hot4", CountTrace::kHot4}}) {
    benchmark::RegisterBenchmark(
        (std::string("util.multiplicity/") + name).c_str(), bm_multiplicity, t)
        ->Arg(1 << 20)
        ->Arg(1 << 22);
  }
  benchmark::RegisterBenchmark("scatter_soa", bm_scatter_soa)
      ->Arg(1 << 8)
      ->Arg(1 << 15)
      ->Arg(1 << 16)
      ->Arg(1 << 18)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("scheduled.combine", bm_scheduled_combine)
      ->RangeMultiplier(2)
      ->Range(1 << 14, 1 << 18);
  for (const auto& [name, assoc] :
       {std::pair{"direct", std::uint64_t{1}}, std::pair{"8way", std::uint64_t{8}},
        std::pair{"full", std::uint64_t{0}}}) {
    benchmark::RegisterBenchmark((std::string("cache_tier/") + name).c_str(),
                                 bm_cache_tier, assoc)
        ->Arg(256)
        ->Arg(1024);
  }
  for (const bool k_hot : {false, true}) {
    const std::string dist = k_hot ? "/khot" : "/uniform";
    const auto sizes = [](benchmark::internal::Benchmark* b) {
      b->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 20);
    };
    benchmark::RegisterBenchmark(("mem.analyze_locations" + dist).c_str(),
                                 bm_analyze_locations, k_hot)
        ->Apply(sizes);
    for (const char* m : {"interleaved", "linear"}) {
      const std::string label =
          std::string("mem.analyze_banks.") +
          (std::string(m) == "linear" ? "hashed" : m) + dist;
      benchmark::RegisterBenchmark(label.c_str(), bm_analyze_banks, k_hot,
                                   std::string(m))
          ->Apply(sizes);
    }
    benchmark::RegisterBenchmark(("core.predict_scatter" + dist).c_str(),
                                 bm_predict_scatter, k_hot)
        ->Apply(sizes);
    benchmark::RegisterBenchmark(("scatter_then_result_predict" + dist).c_str(),
                                 bm_scatter_then_predict, k_hot)
        ->Apply(sizes);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Contention-analysis layers ===\n");
  std::printf(
      "Host cost of location counting (partitioned MultiplicityCounter,\n"
      "kPartitionKeys = %zu, kFanBits = %u), bank tallies, the predictor,\n"
      "and a scatter predicted from its own result.\n"
      "Measured host throughput (items/s; see items_per_second):\n",
      util::MultiplicityCounter::kPartitionKeys,
      util::MultiplicityCounter::kFanBits);
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
