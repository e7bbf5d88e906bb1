// Tests for the algorithm layer: the Vm facade, primitives, radix sort,
// random permutations, binary search, SpMV, connected components. Every
// algorithm's semantics are validated against a host reference, and its
// cost accounting is sanity-checked through the ledger.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "algos/binary_search.hpp"
#include "algos/collectives.hpp"
#include "algos/connected_components.hpp"
#include "algos/list_ranking.hpp"
#include "algos/parallel_hashing.hpp"
#include "algos/primitives.hpp"
#include "algos/radix_sort.hpp"
#include "algos/random_permutation.hpp"
#include "algos/scan.hpp"
#include "algos/spmv.hpp"
#include "algos/vm.hpp"
#include "mem/contention.hpp"
#include "util/rng.hpp"
#include "workload/graphs.hpp"
#include "workload/patterns.hpp"
#include "workload/sparse.hpp"

namespace dxbsp {
namespace {

algos::Vm test_vm() { return algos::Vm(sim::MachineConfig::test_machine()); }

TEST(Vm, ReserveSeparatesRegions) {
  auto vm = test_vm();
  const auto a = vm.reserve(100);
  const auto b = vm.reserve(50);
  EXPECT_GE(b.base, a.base + a.size);
}

TEST(Vm, GatherSemanticsAndAccounting) {
  auto vm = test_vm();
  auto src = vm.make_array<std::uint64_t>(10);
  for (std::uint64_t i = 0; i < 10; ++i) src.data[i] = i * i;
  std::vector<std::uint64_t> out;
  const std::vector<std::uint64_t> idx = {3, 0, 9, 3};
  vm.gather(out, src, idx, "g");
  EXPECT_EQ(out, (std::vector<std::uint64_t>{9, 0, 81, 9}));
  ASSERT_EQ(vm.ledger().entries().size(), 1u);
  EXPECT_EQ(vm.ledger().entries()[0].n, 4u);
  EXPECT_EQ(vm.ledger().entries()[0].max_contention, 2u);
  EXPECT_GT(vm.cycles(), 0u);
}

TEST(Vm, ScatterLastWriterWins) {
  auto vm = test_vm();
  auto dest = vm.make_array<std::uint64_t>(5);
  const std::vector<std::uint64_t> idx = {1, 1, 2};
  const std::vector<std::uint64_t> vals = {10, 20, 30};
  vm.scatter(dest, idx, vals, "s");
  EXPECT_EQ(dest.data[1], 20u);
  EXPECT_EQ(dest.data[2], 30u);
}

TEST(Vm, ScatterAddAccumulates) {
  auto vm = test_vm();
  auto dest = vm.make_array<std::uint64_t>(3);
  const std::vector<std::uint64_t> idx = {0, 0, 2};
  const std::vector<std::uint64_t> vals = {1, 2, 3};
  vm.scatter_add(dest, idx, vals, "sa");
  EXPECT_EQ(dest.data[0], 3u);
  EXPECT_EQ(dest.data[2], 3u);
}

TEST(Vm, OutOfRangeThrows) {
  auto vm = test_vm();
  auto arr = vm.make_array<std::uint64_t>(4);
  std::vector<std::uint64_t> out;
  const std::vector<std::uint64_t> bad = {4};
  EXPECT_THROW(vm.gather(out, arr, bad, "g"), std::out_of_range);
  const std::vector<std::uint64_t> vals = {1};
  EXPECT_THROW(vm.scatter(arr, bad, vals, "s"), std::out_of_range);
  const std::vector<std::uint64_t> short_vals;
  const std::vector<std::uint64_t> ok = {0};
  EXPECT_THROW(vm.scatter(arr, ok, short_vals, "s"), std::invalid_argument);
}

TEST(Vm, ContiguousAndComputeAreContentionFree) {
  auto vm = test_vm();
  const auto r = vm.reserve(1000);
  vm.contiguous(r, 1000, 2.0, "c");
  vm.compute(1000, 3.0, "k");
  for (const auto& e : vm.ledger().entries())
    EXPECT_LE(e.max_contention, 1u);
  EXPECT_THROW(vm.contiguous(r, 2000, 1.0, "c"), std::out_of_range);
}

TEST(Vm, ModelOnlyModeTracksSimulation) {
  const auto cfg = sim::MachineConfig::cray_j90();
  const auto idx = workload::k_hot(20000, 500, 20000, 5);
  auto run = [&](bool simulate) {
    algos::Vm vm(cfg, nullptr, algos::VmOptions{simulate});
    auto dest = vm.make_array<std::uint64_t>(20000);
    const std::vector<std::uint64_t> vals(idx.size(), 1);
    vm.scatter(dest, idx, vals, "s");
    return vm.cycles();
  };
  const double full = static_cast<double>(run(true));
  const double model = static_cast<double>(run(false));
  EXPECT_GT(model / full, 0.9);
  EXPECT_LT(model / full, 1.1);
}

TEST(Vm, StatsContentionEqualsAnalyzeLocationsOfTheOp) {
  // Every per-op contention stat reads the op's own ledger entry; hold
  // each to mem::analyze_locations over the addresses that op issued
  // (recorded through the trace hook), simulated and model-only.
  for (const bool simulate : {true, false}) {
    SCOPED_TRACE(simulate ? "simulate" : "model-only");
    std::map<std::string, std::vector<std::uint64_t>> k;
    const auto cfg = sim::MachineConfig::test_machine();
    const algos::VmOptions opts{simulate};
    auto log_ops = [&k](algos::Vm& vm) {
      vm.set_trace_hook([&k](const std::string& label,
                             std::span<const std::uint64_t> addrs) {
        k[label].push_back(mem::analyze_locations(addrs).max_contention);
      });
    };
    // Hook contention of the iterations that hooked, in order.
    auto hooked = [](const algos::CcStats& st) {
      std::vector<std::uint64_t> out;
      for (const auto& it : st.iterations)
        if (it.hooks > 0) out.push_back(it.hook_contention);
      return out;
    };

    {
      algos::Vm vm(cfg, nullptr, opts);
      log_ops(vm);
      const auto a = workload::dense_column_csr(200, 300, 6, 100, 21);
      algos::SpmvStats st;
      (void)algos::spmv(vm, a, std::vector<double>(300, 1.0), &st);
      ASSERT_EQ(k["spmv-gather-x"].size(), 1u);
      EXPECT_EQ(st.gather_contention, k["spmv-gather-x"][0]);
      EXPECT_GE(st.gather_contention, 100u);  // the dense column
    }
    {
      algos::Vm vm(cfg, nullptr, opts);
      log_ops(vm);
      algos::ListRankStats st;
      (void)algos::list_rank(vm, algos::random_list(4096, 5), &st);
      std::vector<std::uint64_t> got;
      for (const auto& r : st.rounds) got.push_back(r.gather_contention);
      EXPECT_EQ(got, k["rank-gather-next"]);
    }
    {
      algos::Vm vm(cfg, nullptr, opts);
      log_ops(vm);
      algos::DartStats st;
      (void)algos::random_permutation_qrqw(vm, 4096, 77, 2.0, &st);
      std::vector<std::uint64_t> got;
      for (const auto& r : st.rounds) got.push_back(r.max_contention);
      EXPECT_EQ(got, k["perm-darts-readback"]);
    }
    {
      algos::Vm vm(cfg, nullptr, opts);
      log_ops(vm);
      algos::BroadcastStats st;
      (void)algos::broadcast_replicated(vm, 7, 500, 9, 4, &st);
      ASSERT_EQ(k["bcast-replicated-read"].size(), 1u);
      EXPECT_EQ(st.read_contention, k["bcast-replicated-read"][0]);
    }
    {
      algos::Vm vm(cfg, nullptr, opts);
      log_ops(vm);
      const auto keys = workload::distinct_random(3000, 1ULL << 40, 3003);
      algos::HashBuildStats st;
      const algos::ParallelHashTable table(vm, keys, 4000, 17, &st);
      std::vector<std::uint64_t> got;
      for (const auto& r : st.rounds) got.push_back(r.max_probe_contention);
      EXPECT_EQ(got, k["hash-probe-readback"]);
    }
    const auto g = workload::random_gnm(2000, 4000, 44);
    {
      algos::Vm vm(cfg, nullptr, opts);
      log_ops(vm);
      algos::CcStats st;
      (void)algos::connected_components(vm, g, &st);
      EXPECT_EQ(hooked(st), k["cc-hook-scatter"]);
    }
    {
      algos::Vm vm(cfg, nullptr, opts);
      log_ops(vm);
      algos::CcStats st;
      (void)algos::connected_components_random_mate(vm, g, 7, &st);
      EXPECT_EQ(hooked(st), k["rm-hook-scatter"]);
      for (const auto& it : st.iterations) {
        if (it.hooks == 0) {
          EXPECT_EQ(it.hook_contention, 0u);
        }
      }
    }
    for (const auto& [label, ks] : k) EXPECT_FALSE(ks.empty()) << label;
  }
}

TEST(Vm, ProcOfCoversAllProcessors) {
  auto vm = test_vm();  // 4 processors
  const std::uint64_t n = 100;
  std::vector<std::uint64_t> counts(4, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto p = vm.proc_of(i, n);
    ASSERT_LT(p, 4u);
    ++counts[p];
  }
  for (const auto c : counts) EXPECT_EQ(c, 25u);
}

// The add-scan the permutation pack step is built on (exclusive_scan with
// OpAdd): prefix sums in place, the grand total returned.
TEST(Primitives, PlusScan) {
  auto vm = test_vm();
  auto xs = vm.make_array<std::uint64_t>(5);
  xs.data = {3, 1, 4, 1, 5};
  const auto total =
      algos::exclusive_scan(vm, xs, algos::OpAdd{}, std::uint64_t{0}, "scan");
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(xs.data, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(Primitives, PackIndices) {
  auto vm = test_vm();
  auto flags = vm.make_array<std::uint64_t>(6);
  flags.data = {1, 0, 0, 1, 1, 0};
  const auto idx = algos::pack_indices(vm, flags, "pack");
  EXPECT_EQ(idx, (std::vector<std::uint64_t>{0, 3, 4}));
}

TEST(Primitives, SegmentedSum) {
  auto vm = test_vm();
  auto vals = vm.make_array<double>(6);
  vals.data = {1, 2, 3, 4, 5, 6};
  const std::vector<std::uint64_t> seg = {0, 2, 2, 6};
  const auto sums = algos::segmented_sum(vm, vals, seg, "ss");
  ASSERT_EQ(sums.size(), 3u);
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 0.0);  // empty segment
  EXPECT_DOUBLE_EQ(sums[2], 18.0);
  const std::vector<std::uint64_t> bad = {0, 3};
  EXPECT_THROW(algos::segmented_sum(vm, vals, bad, "ss"),
               std::invalid_argument);
}

TEST(Primitives, SegmentedMaxAndReduce) {
  auto vm = test_vm();
  auto vals = vm.make_array<std::uint64_t>(4);
  vals.data = {7, 2, 9, 1};
  const std::vector<std::uint64_t> seg = {0, 2, 4};
  const auto maxes = algos::segmented_max(vm, vals, seg, "sm");
  EXPECT_EQ(maxes, (std::vector<std::uint64_t>{7, 9}));
  EXPECT_EQ(algos::reduce_sum(vm, vals, "r"), 19u);
}

class RadixSortSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadixSortSizes, SortsAndRanks) {
  const std::uint64_t n = GetParam();
  auto vm = test_vm();
  const auto keys = workload::uniform_random(n, 1ULL << 20, n + 1);
  const auto res = algos::radix_sort(vm, keys, 20);

  std::vector<std::uint64_t> expect(keys.begin(), keys.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(res.sorted_keys, expect);
  EXPECT_TRUE(algos::is_permutation_of_iota(res.rank));
  for (std::uint64_t i = 0; i < n; ++i)
    EXPECT_EQ(res.sorted_keys[res.rank[i]], keys[i]);
  EXPECT_EQ(res.passes, 3u);  // 20 bits / 8 per pass
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortSizes,
                         ::testing::Values(1, 2, 7, 100, 1000, 4096, 10001));

TEST(RadixSort, IsStable) {
  // Keys with many duplicates: order[] must preserve input order within
  // equal keys.
  auto vm = test_vm();
  const auto keys = workload::uniform_random(2000, 8, 3);
  const auto res = algos::radix_sort(vm, keys, 3);
  for (std::size_t i = 1; i < res.order.size(); ++i) {
    if (res.sorted_keys[i] == res.sorted_keys[i - 1]) {
      EXPECT_LT(res.order[i - 1], res.order[i]);
    }
  }
}

TEST(RadixSort, EmptyAndArgChecks) {
  auto vm = test_vm();
  const std::vector<std::uint64_t> empty;
  const auto res = algos::radix_sort(vm, empty, 8);
  EXPECT_TRUE(res.sorted_keys.empty());
  EXPECT_THROW((void)algos::radix_sort(vm, empty, 0), std::invalid_argument);
  EXPECT_THROW((void)algos::radix_sort(vm, empty, 8, 0),
               std::invalid_argument);
}

class PermutationSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationSizes, QrqwProducesValidPermutation) {
  const std::uint64_t n = GetParam();
  auto vm = test_vm();
  algos::DartStats stats;
  const auto perm = algos::random_permutation_qrqw(vm, n, 77, 2.0, &stats);
  EXPECT_TRUE(algos::is_permutation_of_iota(perm));
  if (n > 0) {
    EXPECT_GE(stats.total_darts, n);
    EXPECT_FALSE(stats.rounds.empty());
    // Geometric convergence: few rounds needed.
    EXPECT_LT(stats.rounds.size(), 40u);
  }
}

TEST_P(PermutationSizes, ErewProducesValidPermutation) {
  const std::uint64_t n = GetParam();
  auto vm = test_vm();
  const auto perm = algos::random_permutation_erew(vm, n, 78);
  EXPECT_TRUE(algos::is_permutation_of_iota(perm));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSizes,
                         ::testing::Values(1, 2, 10, 257, 5000));

TEST(Permutation, DeterministicInSeed) {
  auto vm1 = test_vm();
  auto vm2 = test_vm();
  EXPECT_EQ(algos::random_permutation_qrqw(vm1, 500, 5),
            algos::random_permutation_qrqw(vm2, 500, 5));
  auto vm3 = test_vm();
  EXPECT_NE(algos::random_permutation_qrqw(vm3, 500, 6),
            algos::random_permutation_qrqw(vm1, 500, 5));
}

TEST(Permutation, RhoValidation) {
  auto vm = test_vm();
  EXPECT_THROW((void)algos::random_permutation_qrqw(vm, 10, 1, 1.0),
               std::invalid_argument);
}

TEST(Permutation, QrqwContentionStaysLow) {
  auto vm = test_vm();
  algos::DartStats stats;
  (void)algos::random_permutation_qrqw(vm, 20000, 9, 2.0, &stats);
  for (const auto& r : stats.rounds) {
    // Balls-in-bins: with a table 2x the dart count, max cell contention
    // stays logarithmic; this is what makes the algorithm QRQW-cheap.
    EXPECT_LE(r.max_contention, 12u);
  }
}

class SearchShapes
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {
};

TEST_P(SearchShapes, QrqwTreeSearchMatchesReference) {
  const auto [m, n] = GetParam();
  auto vm = test_vm();
  auto keys = workload::distinct_random(m, 1ULL << 30, m);
  std::sort(keys.begin(), keys.end());
  const algos::ReplicatedTree tree(vm, keys, n, 4);
  auto queries = workload::uniform_random(n, 1ULL << 30, n + 5);
  // Include exact hits and extremes.
  if (n >= 3 && m >= 1) {
    queries[0] = keys.front();
    queries[1] = keys.back();
    queries[2] = 0;
  }
  const auto got = tree.lower_bound(vm, queries, 17);
  EXPECT_EQ(got, algos::reference_lower_bound(keys, queries));
}

TEST_P(SearchShapes, ErewSearchMatchesReference) {
  const auto [m, n] = GetParam();
  auto vm = test_vm();
  auto keys = workload::distinct_random(m, 1ULL << 30, m);
  std::sort(keys.begin(), keys.end());
  const auto queries = workload::uniform_random(n, 1ULL << 30, n + 5);
  const auto got = algos::erew_lower_bound(vm, keys, queries);
  EXPECT_EQ(got, algos::reference_lower_bound(keys, queries));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SearchShapes,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{1, 10},
                      std::pair<std::uint64_t, std::uint64_t>{2, 50},
                      std::pair<std::uint64_t, std::uint64_t>{63, 200},
                      std::pair<std::uint64_t, std::uint64_t>{64, 200},
                      std::pair<std::uint64_t, std::uint64_t>{100, 1000},
                      std::pair<std::uint64_t, std::uint64_t>{1023, 4096},
                      std::pair<std::uint64_t, std::uint64_t>{1000, 317}));

TEST(Search, ReplicationReducesContention) {
  auto vm = test_vm();
  auto keys = workload::distinct_random(255, 1ULL << 30, 1);
  std::sort(keys.begin(), keys.end());
  const std::uint64_t n = 5000;
  const auto queries = workload::uniform_random(n, 1ULL << 30, 2);

  auto vm_naive = test_vm();
  const algos::ReplicatedTree naive(vm_naive, keys, n, 0);  // no replication
  (void)naive.lower_bound(vm_naive, queries, 3);
  auto vm_repl = test_vm();
  const algos::ReplicatedTree repl(vm_repl, keys, n, 4);
  (void)repl.lower_bound(vm_repl, queries, 3);

  // The naive root sees all n queries; replication divides that down.
  EXPECT_EQ(vm_naive.ledger().max_contention(), n);
  EXPECT_LT(vm_repl.ledger().max_contention(), n / 16);
  EXPECT_GT(repl.replication(0), 1u);
  EXPECT_GT(repl.footprint(), naive.footprint());
}

class FanoutShapes
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {
};

TEST_P(FanoutShapes, MatchesReference) {
  const auto [m, fanout] = GetParam();
  auto vm = test_vm();
  auto keys = workload::distinct_random(m, 1ULL << 30, m + 9);
  std::sort(keys.begin(), keys.end());
  const algos::FanoutTree tree(vm, keys, fanout);
  auto queries = workload::uniform_random(500, 1ULL << 30, m + 10);
  queries[0] = keys.front();
  queries[1] = keys.back();
  queries[2] = 0;
  queries[3] = ~0ULL >> 1;
  EXPECT_EQ(tree.lower_bound(vm, queries),
            algos::reference_lower_bound(keys, queries));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FanoutShapes,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{1, 2},
                      std::pair<std::uint64_t, std::uint64_t>{2, 2},
                      std::pair<std::uint64_t, std::uint64_t>{100, 4},
                      std::pair<std::uint64_t, std::uint64_t>{1000, 8},
                      std::pair<std::uint64_t, std::uint64_t>{1024, 16},
                      std::pair<std::uint64_t, std::uint64_t>{777, 3}));

TEST(Fanout, WiderNodesMeanFewerLevels) {
  auto vm = test_vm();
  auto keys = workload::distinct_random(4096, 1ULL << 30, 1);
  std::sort(keys.begin(), keys.end());
  const algos::FanoutTree narrow(vm, keys, 2);
  const algos::FanoutTree wide(vm, keys, 16);
  EXPECT_EQ(narrow.levels(), 12u);
  EXPECT_EQ(wide.levels(), 3u);
  EXPECT_THROW(algos::FanoutTree(vm, keys, 1), std::invalid_argument);
}

TEST(Search, TreeValidation) {
  auto vm = test_vm();
  const std::vector<std::uint64_t> unsorted = {5, 3};
  EXPECT_THROW(algos::ReplicatedTree(vm, unsorted, 10, 1),
               std::invalid_argument);
  const std::vector<std::uint64_t> empty;
  EXPECT_THROW(algos::ReplicatedTree(vm, empty, 10, 1),
               std::invalid_argument);
}

class SpmvShapes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpmvShapes, MatchesReference) {
  const std::uint64_t dense_len = GetParam();
  auto vm = test_vm();
  const auto a = workload::dense_column_csr(200, 300, 6, dense_len, 21);
  std::vector<double> x(a.cols);
  util::Xoshiro256 rng(5);
  for (auto& v : x) v = rng.uniform();
  algos::SpmvStats stats;
  const auto y = algos::spmv(vm, a, x, &stats);
  const auto expect = a.multiply_reference(x);
  ASSERT_EQ(y.size(), expect.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], expect[i], 1e-9);
  EXPECT_EQ(stats.nnz, a.nnz());
  EXPECT_GE(stats.gather_contention, dense_len);
}

INSTANTIATE_TEST_SUITE_P(DenseLens, SpmvShapes,
                         ::testing::Values(0, 1, 10, 100, 200));

TEST(Spmv, DimensionMismatchThrows) {
  auto vm = test_vm();
  const auto a = workload::random_csr(10, 20, 3, 1);
  const std::vector<double> wrong(19);
  EXPECT_THROW((void)algos::spmv(vm, a, wrong), std::invalid_argument);
}

TEST(Spmv, ContentionDrivesDxBspPrediction) {
  // A long dense column must push the dxbsp prediction of the gather
  // above the bsp prediction.
  auto vm = test_vm();
  const auto a = workload::dense_column_csr(2000, 4000, 4, 2000, 22);
  std::vector<double> x(a.cols, 1.0);
  (void)algos::spmv(vm, a, x);
  for (const auto& e : vm.ledger().by_label()) {
    if (e.label == "spmv-gather-x") {
      EXPECT_GT(e.pred_dxbsp, e.pred_bsp);
      EXPECT_GE(e.max_contention, 2000u);
    }
  }
}

class CcGraphs : public ::testing::TestWithParam<int> {};

TEST_P(CcGraphs, MatchesUnionFind) {
  workload::Graph g;
  switch (GetParam()) {
    case 0: g = workload::random_gnm(500, 300, 31); break;
    case 1: g = workload::random_gnm(500, 2000, 32); break;
    case 2: g = workload::star(400); break;
    case 3: g = workload::star_forest(600, 12, 33); break;
    case 4: g = workload::grid(20, 25); break;
    case 5: g = workload::path(800); break;
    case 6: g.n = 100; break;  // edgeless
    default: FAIL();
  }
  auto vm = test_vm();
  algos::CcStats stats;
  const auto labels = algos::connected_components(vm, g, &stats);
  const auto expect = workload::reference_components(g);
  EXPECT_TRUE(algos::same_partition(labels, expect));
  EXPECT_EQ(workload::count_components(labels),
            workload::count_components(expect));
}

INSTANTIATE_TEST_SUITE_P(Graphs, CcGraphs, ::testing::Range(0, 7));

TEST(Cc, StarGraphShowsExtremeGatherContention) {
  const auto g = workload::star(3000);
  auto vm = test_vm();
  algos::CcStats stats;
  (void)algos::connected_components(vm, g, &stats);
  ASSERT_FALSE(stats.iterations.empty());
  // Every edge touches the hub: contention ~ m on the first gather.
  EXPECT_GE(stats.iterations[0].gather_contention, 2999u);
}

TEST(Cc, UniformGraphHasLowContention) {
  const auto g = workload::random_gnm(4000, 6000, 35);
  auto vm = test_vm();
  algos::CcStats stats;
  (void)algos::connected_components(vm, g, &stats);
  ASSERT_FALSE(stats.iterations.empty());
  EXPECT_LT(stats.iterations[0].gather_contention, 40u);
}

TEST(Cc, TracesAreRecordedOnRequest) {
  const auto g = workload::random_gnm(200, 300, 36);
  auto vm = test_vm();
  algos::CcStats stats;
  (void)algos::connected_components(vm, g, &stats, {.keep_traces = true});
  EXPECT_EQ(stats.gather_traces.size(), stats.iterations.size());
  EXPECT_EQ(stats.gather_traces[0].size(), 2 * g.m());
}

TEST(Cc, SamePartitionHelper) {
  EXPECT_TRUE(algos::same_partition({0, 0, 2}, {5, 5, 7}));
  EXPECT_FALSE(algos::same_partition({0, 0, 2}, {5, 6, 7}));
  EXPECT_FALSE(algos::same_partition({0, 1, 1}, {5, 5, 7}));
  EXPECT_FALSE(algos::same_partition({0}, {0, 1}));
}

}  // namespace
}  // namespace dxbsp
