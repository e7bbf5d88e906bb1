// Tests for workload generators: contention patterns, entropy families,
// sparse matrices, graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "mem/contention.hpp"
#include "stats/histogram.hpp"
#include "workload/entropy.hpp"
#include "workload/graphs.hpp"
#include "workload/patterns.hpp"
#include "workload/sparse.hpp"

namespace dxbsp {
namespace {

TEST(Patterns, DistinctRandomIsDistinct) {
  for (std::uint64_t space : {1000ULL, 100000ULL}) {
    const auto xs = workload::distinct_random(1000, space, 1);
    EXPECT_EQ(xs.size(), 1000u);
    std::unordered_set<std::uint64_t> seen(xs.begin(), xs.end());
    EXPECT_EQ(seen.size(), xs.size());
    for (const auto x : xs) EXPECT_LT(x, space);
  }
  EXPECT_THROW(workload::distinct_random(10, 5, 1), std::invalid_argument);
}

TEST(Patterns, UniformRandomInRange) {
  const auto xs = workload::uniform_random(5000, 37, 2);
  for (const auto x : xs) EXPECT_LT(x, 37u);
  EXPECT_THROW(workload::uniform_random(5, 0, 1), std::invalid_argument);
}

TEST(Patterns, KHotHasExactContention) {
  const auto xs = workload::k_hot(2000, 150, 1 << 20, 3);
  const auto lc = mem::analyze_locations(xs);
  EXPECT_EQ(lc.total, 2000u);
  EXPECT_EQ(lc.max_contention, 150u);
  EXPECT_EQ(lc.distinct, 2000u - 150u + 1u);
}

TEST(Patterns, KHotIsShuffled) {
  // The hot requests must not be bunched at the front: check the first
  // occurrence positions of the hot address spread over the trace.
  const auto xs = workload::k_hot(10000, 5000, 1 << 20, 4);
  const auto mult = stats::multiplicities(xs);
  std::uint64_t hot = 0;
  for (const auto& [v, c] : mult)
    if (c == 5000) hot = v;
  std::uint64_t first = xs.size(), last = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == hot) {
      first = std::min<std::uint64_t>(first, i);
      last = std::max<std::uint64_t>(last, i);
    }
  }
  EXPECT_LT(first, 100u);
  EXPECT_GT(last, xs.size() - 100);
}

TEST(Patterns, MultiHot) {
  const auto xs = workload::multi_hot(5000, 10, 100, 1 << 20, 5);
  const auto spectrum = stats::contention_spectrum(xs);
  EXPECT_EQ(spectrum.at(100), 10u);   // ten locations with contention 100
  EXPECT_EQ(spectrum.at(1), 4000u);   // the rest distinct
  EXPECT_THROW(workload::multi_hot(10, 3, 5, 1 << 20, 1),
               std::invalid_argument);  // 15 hot requests > n
  EXPECT_THROW(workload::multi_hot(10, 0, 1, 1 << 20, 1),
               std::invalid_argument);
}

/// FNV-1a over the little-endian bytes of every address, in order.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t x : xs)
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  return h;
}

TEST(Patterns, GeneratorsMatchPinnedDigests) {
  // The generators feed every paper figure and the benchmark digests:
  // their exact output sequence is pinned, not just their contention
  // shape. The tight-space cases force many rejected draws, so the
  // accept/reject sequence of the distinct-address sampler is pinned
  // as well.
  EXPECT_EQ(fnv1a(workload::k_hot(1 << 16, 512, 1 << 24, 1995)),
            0x3cd66b8a9454169aULL);
  EXPECT_EQ(fnv1a(workload::multi_hot(1 << 16, 64, 64, 1 << 24, 7)),
            0x712532ee5d054fbaULL);
  EXPECT_EQ(fnv1a(workload::multi_hot(4096, 8, 16, 4200, 5)),
            0x196d2970071877f6ULL);
  EXPECT_EQ(fnv1a(workload::distinct_random(1 << 15, 1 << 24, 11)),
            0xe77edc0eb7383b8eULL);
  EXPECT_EQ(fnv1a(workload::distinct_random(3000, 7000, 3)),
            0x942328fce4045f41ULL);
}

TEST(Patterns, StridedAndCyclic) {
  const auto s = workload::strided(5, 3, 10);
  EXPECT_EQ(s, (std::vector<std::uint64_t>{10, 13, 16, 19, 22}));
  const auto c = workload::cyclic(7, 3);
  EXPECT_EQ(c, (std::vector<std::uint64_t>{0, 1, 2, 0, 1, 2, 0}));
  EXPECT_EQ(mem::analyze_locations(c).max_contention, 3u);
  EXPECT_THROW(workload::cyclic(5, 0), std::invalid_argument);
}

TEST(Patterns, RandomPermutationIsPermutation) {
  const auto xs = workload::random_permutation(1000, 9);
  std::vector<std::uint64_t> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(sorted[i], i);
  // And not the identity (overwhelmingly likely).
  std::uint64_t fixed = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) fixed += (xs[i] == i);
  EXPECT_LT(fixed, 20u);
}

TEST(Patterns, DeterministicInSeed) {
  EXPECT_EQ(workload::k_hot(500, 20, 1 << 16, 42),
            workload::k_hot(500, 20, 1 << 16, 42));
  EXPECT_NE(workload::k_hot(500, 20, 1 << 16, 42),
            workload::k_hot(500, 20, 1 << 16, 43));
}

TEST(Entropy, FamilyEntropyDecreasesContentionIncreases) {
  const auto family = workload::entropy_family(20000, 8, 20, 0, 7);
  ASSERT_EQ(family.size(), 9u);
  // AND-folding drives entropy down and contention up. The per-round
  // trend is statistical (individual rounds can wobble as new submask
  // values appear), so allow slack per round and require a clear overall
  // collapse.
  for (std::size_t r = 1; r < family.size(); ++r) {
    EXPECT_LE(family[r].entropy_bits, family[r - 1].entropy_bits + 0.5);
    EXPECT_GE(family[r].max_contention, family[r - 1].max_contention / 2);
  }
  EXPECT_GT(family.back().max_contention, family.front().max_contention);
  // Round 0 is near-uniform random: entropy close to log2(n) for
  // 20-bit keys and 20000 draws.
  EXPECT_GT(family[0].entropy_bits, 13.0);
  // Deep rounds collapse toward zero.
  EXPECT_LT(family.back().entropy_bits, family.front().entropy_bits / 2);
}

TEST(Entropy, SpaceReductionApplies) {
  const auto family = workload::entropy_family(1000, 2, 30, 64, 8);
  for (const auto& t : family)
    for (const auto k : t.keys) EXPECT_LT(k, 64u);
}

TEST(Entropy, RejectsBadArgs) {
  EXPECT_THROW(workload::entropy_family(0, 1, 10, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(workload::entropy_family(10, 1, 0, 0, 1),
               std::invalid_argument);
}

TEST(Histogram, ShannonEntropy) {
  const std::vector<std::uint64_t> uniform = {1, 2, 3, 4};
  EXPECT_NEAR(stats::shannon_entropy(uniform), 2.0, 1e-12);
  const std::vector<std::uint64_t> constant = {5, 5, 5, 5};
  EXPECT_NEAR(stats::shannon_entropy(constant), 0.0, 1e-12);
  EXPECT_EQ(stats::shannon_entropy(std::span<const std::uint64_t>{}), 0.0);
}

TEST(Histogram, Log2Buckets) {
  const std::vector<std::uint64_t> xs = {0, 1, 2, 3, 4, 8, 1024};
  const auto b = stats::log2_buckets(xs);
  ASSERT_EQ(b.size(), 11u);
  EXPECT_EQ(b[0], 2u);   // 0 and 1
  EXPECT_EQ(b[1], 2u);   // 2, 3
  EXPECT_EQ(b[2], 1u);   // 4
  EXPECT_EQ(b[3], 1u);   // 8
  EXPECT_EQ(b[10], 1u);  // 1024
}

TEST(Sparse, RandomCsrIsValid) {
  const auto m = workload::random_csr(100, 500, 8, 11);
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.rows, 100u);
  EXPECT_EQ(m.nnz(), 800u);
  // Columns within each row are distinct.
  for (std::uint64_t r = 0; r < m.rows; ++r) {
    std::unordered_set<std::uint64_t> cols;
    for (std::uint64_t i = m.row_ptr[r]; i < m.row_ptr[r + 1]; ++i)
      EXPECT_TRUE(cols.insert(m.col_idx[i]).second);
  }
  EXPECT_THROW(workload::random_csr(10, 4, 5, 1), std::invalid_argument);
}

TEST(Sparse, DenseColumnFrequency) {
  const std::uint64_t c = 60;
  const auto m = workload::dense_column_csr(100, 1000, 4, c, 12);
  EXPECT_NO_THROW(m.validate());
  EXPECT_GE(workload::column_frequency(m, 0), c);
  EXPECT_THROW(workload::dense_column_csr(10, 100, 4, 11, 1),
               std::invalid_argument);
}

TEST(Sparse, ReferenceMultiply) {
  workload::CsrMatrix m;
  m.rows = 2;
  m.cols = 3;
  m.row_ptr = {0, 2, 3};
  m.col_idx = {0, 2, 1};
  m.values = {2.0, 3.0, 4.0};
  m.validate();
  const auto y = m.multiply_reference({1.0, 10.0, 100.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 302.0);
  EXPECT_DOUBLE_EQ(y[1], 40.0);
  EXPECT_THROW(m.multiply_reference({1.0}), std::invalid_argument);
}

TEST(Graphs, GeneratorsProduceValidGraphs) {
  for (const auto& g :
       {workload::random_gnm(100, 300, 1), workload::star(50),
        workload::star_forest(100, 5, 2), workload::grid(8, 7),
        workload::path(20)}) {
    EXPECT_NO_THROW(g.validate());
  }
}

TEST(Graphs, KnownComponentCounts) {
  EXPECT_EQ(workload::count_components(
                workload::reference_components(workload::star(10))),
            1u);
  EXPECT_EQ(workload::count_components(
                workload::reference_components(workload::path(10))),
            1u);
  EXPECT_EQ(workload::count_components(
                workload::reference_components(workload::grid(4, 4))),
            1u);
  EXPECT_EQ(workload::count_components(workload::reference_components(
                workload::star_forest(100, 7, 3))),
            7u);
  // Empty graph: every vertex its own component.
  workload::Graph g;
  g.n = 5;
  EXPECT_EQ(workload::count_components(workload::reference_components(g)), 5u);
}

TEST(Graphs, ReferenceLabelsAreConsistent) {
  const auto g = workload::random_gnm(200, 150, 4);
  const auto labels = workload::reference_components(g);
  for (const auto& [u, v] : g.edges) EXPECT_EQ(labels[u], labels[v]);
}

TEST(Graphs, ValidationCatchesBadEdges) {
  workload::Graph g;
  g.n = 3;
  g.edges = {{0, 3}};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g.edges = {{1, 1}};
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(Graphs, StarForestArgumentChecks) {
  EXPECT_THROW(workload::star_forest(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(workload::star_forest(10, 11, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dxbsp
