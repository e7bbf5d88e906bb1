// Differential tests of the location and bank counters.
//
// mem::analyze_locations counts through util::MultiplicityCounter (a
// radix partition plus a cache-resident hash table per partition). It is
// diffed here against the copy-and-sort count it replaced, kept below as
// the oracle: {max_contention, distinct, mean_contention} must agree
// exactly on seeded random traces at every size where the partition
// count or the number of scatter passes changes, on repeat-heavy key
// spaces, on the sentinel keys 0 and ~0, on a trace whose keys all land
// in one partition, on one whose keys all land in one level-1
// partition of a two-pass span, and on one whose hashes share the bits
// below the partition bits (the table slot's input). The repeated keys
// the counter can list (every key of multiplicity 2 or more, which seed
// the simulator's combining table) are diffed against the oracle's runs
// of length 2 or more on the same kinds of traces.
// mem::analyze_banks maps through bank_of_batch in chunks; it is diffed
// against a per-element bank_of tally for every mapping make_mapping
// builds. The access profile a simulated op returns (Machine::run's one
// mapping-and-count pass, read by core::predict(result, ...)) is diffed
// against core::predict_scatter's own count on every engine pin, and a
// scatter_banks profile (read off the bank tally) against
// analyze_locations over its bank ids.

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor.hpp"
#include "engine_pins.hpp"
#include "fault/fault_plan.hpp"
#include "mem/bank_mapping.hpp"
#include "mem/contention.hpp"
#include "prediction_print.hpp"
#include "resilience/error.hpp"
#include "sim/machine.hpp"
#include "util/multiplicity.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace {

using namespace dxbsp;
using util::MultiplicityCounter;

// The oracle: sort a copy, count the runs. O(n log n) and plainly exact.
mem::LocationContention sort_count(std::span<const std::uint64_t> addrs) {
  mem::LocationContention lc;
  lc.total = addrs.size();
  if (addrs.empty()) return lc;
  std::vector<std::uint64_t> sorted(addrs.begin(), addrs.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t run = 1;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == sorted[i - 1]) {
      ++run;
    } else {
      lc.max_contention = std::max(lc.max_contention, run);
      ++lc.distinct;
      run = 1;
    }
  }
  lc.max_contention = std::max(lc.max_contention, run);
  ++lc.distinct;
  lc.mean_contention =
      static_cast<double>(lc.total) / static_cast<double>(lc.distinct);
  return lc;
}

void expect_matches_oracle(std::span<const std::uint64_t> keys,
                           const std::string& what) {
  const mem::LocationContention want = sort_count(keys);
  const mem::LocationContention got = mem::analyze_locations(keys);
  EXPECT_EQ(got.total, want.total) << what;
  EXPECT_EQ(got.distinct, want.distinct) << what;
  EXPECT_EQ(got.max_contention, want.max_contention) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_contention),
            std::bit_cast<std::uint64_t>(want.mean_contention))
      << what;
  MultiplicityCounter mc;  // a fresh counter, not the per-thread one
  const util::Multiplicity m = mc.count(keys);
  EXPECT_EQ(m.max, want.max_contention) << what;
  EXPECT_EQ(m.distinct, want.distinct) << what;
}

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t space,
                                       std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = space == 0 ? rng() : rng() % space;
  return keys;
}

/// The longest span counted with one scatter pass.
constexpr std::size_t kOnePassKeys = (MultiplicityCounter::kPartitionKeys / 2)
                                     << (MultiplicityCounter::kFanBits + 1);

/// t - 1, t and t + 1 for every power of two t in [from, to].
std::vector<std::size_t> threshold_sizes(std::size_t from, std::size_t to) {
  std::vector<std::size_t> sizes;
  for (std::size_t t = from; t <= to; t *= 2) {
    sizes.push_back(t - 1);
    sizes.push_back(t);
    sizes.push_back(t + 1);
  }
  return sizes;
}

/// 0, 1, 2^16+1, and every size (±1) at which the partition count, the
/// number of scatter passes or a pass's fan-out changes, up to 2^20: each
/// power of two from kPartitionKeys on (the one-pass limit kOnePassKeys
/// is one of them). The thresholds at 2^21 and 2^22 run as cases of
/// their own (the ...At2To21 / ...At2To22 tests), so `ctest -j` spreads
/// the largest traces over several processes.
std::vector<std::size_t> trace_sizes() {
  std::vector<std::size_t> sizes{0, 1, (std::size_t{1} << 16) + 1};
  for (const std::size_t n : threshold_sizes(
           MultiplicityCounter::kPartitionKeys, std::size_t{1} << 20))
    sizes.push_back(n);
  return sizes;
}

/// The multiplicative inverse of an odd 64-bit word (Newton's iteration:
/// each step doubles the number of correct low bits).
std::uint64_t inverse_of(std::uint64_t a) {
  std::uint64_t x = a;  // correct to 3 bits for odd a
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// Diffs the counts against the oracle at every size in `sizes`: mostly
/// distinct keys, then key spaces small enough to force repeats (every
/// key ~64 times; a handful of keys).
void expect_oracle_at_sizes(const std::vector<std::size_t>& sizes,
                            std::uint64_t seed) {
  for (const std::size_t n : sizes) {
    for (const std::uint64_t space : {std::uint64_t{0}, n / 64 + 1,
                                      std::uint64_t{7}}) {
      const auto keys = random_keys(n, space, seed++);
      expect_matches_oracle(keys, "n=" + std::to_string(n) +
                                      " space=" + std::to_string(space));
    }
  }
}

TEST(LocationCounterDiff, MatchesSortOracleAcrossPartitionThresholds) {
  expect_oracle_at_sizes(trace_sizes(), 1);
}

TEST(LocationCounterDiff, MatchesSortOracleAt2To21) {
  expect_oracle_at_sizes(
      threshold_sizes(std::size_t{1} << 21, std::size_t{1} << 21), 2100);
}

TEST(LocationCounterDiff, MatchesSortOracleAt2To22) {
  expect_oracle_at_sizes(
      threshold_sizes(std::size_t{1} << 22, std::size_t{1} << 22), 2200);
}

TEST(LocationCounterDiff, SentinelKeysCountLikeAnyOther) {
  for (const std::size_t n : {std::size_t{3}, std::size_t{5000},
                              (std::size_t{1} << 16) + 1}) {
    auto keys = random_keys(n, 0, n);
    // Every third key is 0, every fifth ~0: both are ordinary keys to
    // the counter (its empty-slot tag is the epoch, not the key).
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) keys[i] = 0;
      if (i % 5 == 0) keys[i] = ~std::uint64_t{0};
    }
    expect_matches_oracle(keys, "sentinels n=" + std::to_string(n));
    std::vector<std::uint64_t> zeros(n, 0);
    expect_matches_oracle(zeros, "all zero n=" + std::to_string(n));
    std::vector<std::uint64_t> ones(n, ~std::uint64_t{0});
    expect_matches_oracle(ones, "all ~0 n=" + std::to_string(n));
  }
}

TEST(LocationCounterDiff, AllKeysInOnePartitionGrowTheTableExactly) {
  // Keys whose Fibonacci hashes have their top `bits` bits clear all land
  // in partition 0: one partition holds the whole trace, and the table
  // must grow mid-partition. (Only the partition bits are fixed; the
  // bits below, which pick the table slot, stay random.)
  const std::uint64_t inv = inverse_of(MultiplicityCounter::kMultiplier);
  ASSERT_EQ(inv * MultiplicityCounter::kMultiplier, 1u);
  const std::size_t n = (std::size_t{1} << 16) + 1;
  // Partition bits: the fewest that average kPartitionKeys/2 keys or
  // fewer per partition (a one-pass span at this n).
  const auto bits = static_cast<unsigned>(
      std::bit_width((n - 1) / (MultiplicityCounter::kPartitionKeys / 2)));
  ASSERT_GT(bits, 0u) << "n must span several partitions";
  ASSERT_LE(n, kOnePassKeys);
  util::SplitMix64 rng(99);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Every fourth key repeats an earlier one, so counts must survive
    // the rehash.
    keys[i] = i % 4 == 3 ? keys[i / 2] : (rng() >> bits) * inv;
  }
  expect_matches_oracle(keys, "one partition");
}

TEST(LocationCounterDiff, OversizedFirstLevelPartitionCountsExactly) {
  // A two-pass span whose hashes all share their top kFanBits bits: pass
  // 1 puts every key in one level-1 partition, far longer than the
  // second buffer, so it is split into its sub-partitions in place in
  // the scratch buffer instead of scattered into the second buffer. Each
  // sub-partition is still far over the average, so the table grows
  // mid-partition.
  const std::uint64_t inv = inverse_of(MultiplicityCounter::kMultiplier);
  const std::size_t n = 2 * kOnePassKeys;
  util::SplitMix64 rng(7);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = i % 4 == 3 ? keys[i / 2]
                         : (rng() >> MultiplicityCounter::kFanBits) * inv;
  }
  expect_matches_oracle(keys, "one oversized level-1 partition");
}

TEST(LocationCounterDiff, KeysSharingTheirSlotBitsCountExactly) {
  // Hashes that share every bit below the partition bits but the lowest
  // few: if the table slot were those bits themselves, every key would
  // probe one chain and the count would take quadratic time (seconds at
  // 2^16 keys, minutes here). The slot remix spreads them.
  const std::uint64_t inv = inverse_of(MultiplicityCounter::kMultiplier);
  const std::size_t n = std::size_t{1} << 19;
  util::SplitMix64 rng(17);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = i % 4 == 3 ? keys[i / 2] : (rng() >> 17) * inv;
  expect_matches_oracle(keys, "shared slot bits");
}

/// The counter's repeated-key list, sorted, must be exactly the keys the
/// sort oracle sees two or more times, each once.
void expect_repeated_match(MultiplicityCounter& mc,
                           std::span<const std::uint64_t> keys,
                           const std::string& what) {
  std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> want;
  for (std::size_t i = 1; i < sorted.size(); ++i)
    if (sorted[i] == sorted[i - 1] && (want.empty() || want.back() != sorted[i]))
      want.push_back(sorted[i]);
  std::vector<std::uint64_t> got{1, 2, 3};  // count() must clear it
  const util::Multiplicity m = mc.count(keys, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << what;
  EXPECT_EQ(m.max > 1, !want.empty()) << what;
}

/// Diffs the repeated-key lists against the oracle at every size in
/// `sizes`, through one reused counter: a mix of singletons and repeats,
/// and every key ~64 times.
void expect_repeated_at_sizes(MultiplicityCounter& mc,
                              const std::vector<std::size_t>& sizes,
                              std::uint64_t seed) {
  for (const std::size_t n : sizes) {
    for (const std::uint64_t space : {std::uint64_t{n} + 1, n / 64 + 1}) {
      const auto keys = random_keys(n, space, seed++);
      expect_repeated_match(mc, keys, "n=" + std::to_string(n) +
                                          " space=" + std::to_string(space));
    }
  }
}

TEST(LocationCounterDiff, RepeatedKeysMatchSortOracleAt2To21) {
  MultiplicityCounter mc;
  expect_repeated_at_sizes(
      mc, threshold_sizes(std::size_t{1} << 21, std::size_t{1} << 21), 2900);
}

TEST(LocationCounterDiff, RepeatedKeysMatchSortOracleAt2To22) {
  MultiplicityCounter mc;
  expect_repeated_at_sizes(
      mc, threshold_sizes(std::size_t{1} << 22, std::size_t{1} << 22), 3000);
}

TEST(LocationCounterDiff, RepeatedKeysMatchSortOracle) {
  MultiplicityCounter mc;  // reused: no call may leak into the next list
  expect_repeated_at_sizes(mc, trace_sizes(), 900);
  // Distinct keys: an empty list.
  expect_repeated_match(mc, random_keys(kOnePassKeys + 1, 0, 1900),
                        "distinct");
  // The sentinels 0 and ~0 repeat like any other key.
  for (const std::size_t n : {std::size_t{3}, std::size_t{5000},
                              (std::size_t{1} << 16) + 1}) {
    auto keys = random_keys(n, n, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) keys[i] = 0;
      if (i % 5 == 0) keys[i] = ~std::uint64_t{0};
    }
    expect_repeated_match(mc, keys, "sentinels n=" + std::to_string(n));
  }
  // One oversized level-1 partition, split in place.
  const std::uint64_t inv = inverse_of(MultiplicityCounter::kMultiplier);
  {
    const std::size_t n = 2 * kOnePassKeys;
    util::SplitMix64 rng(7);
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = i % 4 == 3 ? keys[i / 2]
                           : (rng() >> MultiplicityCounter::kFanBits) * inv;
    }
    expect_repeated_match(mc, keys, "one oversized level-1 partition");
  }
  // fig4's heavy hot spots (n/16 and n/4 of a two-pass span at one key)
  // over a space that also repeats other keys.
  const std::size_t n = 4 * kOnePassKeys;
  for (const std::size_t hot : {n / 16, n / 4}) {
    auto keys = random_keys(n, 4 * n, hot);
    for (std::size_t i = 0; i < hot; ++i) keys[i * (n / hot)] = 42;
    expect_repeated_match(mc, keys, "hot=" + std::to_string(hot));
  }
}

TEST(LocationCounterDiff, UniformTraceKeepsTheTableInBudget) {
  // Partitions average half the growth threshold, so a uniform trace
  // never grows the table past kSlotsPerKey·kPartitionKeys slots.
  for (std::size_t n = std::size_t{1} << 14; n <= (std::size_t{1} << 20);
       n *= 2) {
    MultiplicityCounter mc;
    const auto keys = random_keys(n, 0, n);
    EXPECT_EQ(mc.count(keys).distinct, n);
    EXPECT_EQ(mc.table_slots(), MultiplicityCounter::kSlotsPerKey *
                                    MultiplicityCounter::kPartitionKeys)
        << "n=" << n;
  }
}

TEST(LocationCounterDiff, HeavyHotSpotKeepsTheTableInBudget) {
  // fig4's heavy hot spots: one key taking n/16 or n/4 of a two-pass
  // span makes its level-1 partition several times the average, too
  // long for the second buffer. It is split into sub-partitions in
  // place, so each holds about the average number of distinct keys and
  // the table never grows, on this call or on a later uniform one.
  const std::size_t budget =
      MultiplicityCounter::kSlotsPerKey * MultiplicityCounter::kPartitionKeys;
  const std::size_t n = 4 * kOnePassKeys;
  MultiplicityCounter mc;
  for (const std::size_t hot : {n / 16, n / 4}) {
    auto keys = random_keys(n, 0, hot);
    for (std::size_t i = 0; i < hot; ++i) keys[i * (n / hot)] = 42;
    const auto want = sort_count(keys);
    const util::Multiplicity m = mc.count(keys);
    EXPECT_EQ(m.max, want.max_contention) << "hot=" << hot;
    EXPECT_EQ(m.distinct, want.distinct) << "hot=" << hot;
    EXPECT_EQ(mc.table_slots(), budget) << "hot=" << hot;
  }
  EXPECT_EQ(mc.count(random_keys(n, 0, 3)).distinct, n);
  EXPECT_EQ(mc.table_slots(), budget);

  // A crafted key set whose hashes share their top 17 bits puts 2^19
  // distinct keys in one partition: the table grows to hold them (a
  // 32 MiB table), and the call gives it back before returning, so the
  // following uniform call counts in a budget-sized table again.
  const std::size_t crafted_n = std::size_t{1} << 19;
  util::SplitMix64 rng(17);
  std::vector<std::uint64_t> crafted(crafted_n);
  for (auto& k : crafted) k = (rng() >> 17) * MultiplicityCounter::kInverse;
  const auto want = sort_count(crafted);
  const util::Multiplicity m = mc.count(crafted);
  EXPECT_EQ(m.max, want.max_contention);
  EXPECT_EQ(m.distinct, want.distinct);
  EXPECT_EQ(mc.table_slots(), budget) << "the grown table was kept";
  const auto uniform = random_keys(n, 0, 5);
  const auto want_uniform = sort_count(uniform);
  const util::Multiplicity mu = mc.count(uniform);
  EXPECT_EQ(mu.max, want_uniform.max_contention);
  EXPECT_EQ(mu.distinct, want_uniform.distinct);
  EXPECT_EQ(mc.table_slots(), 32768u);
}

TEST(LocationCounterDiff, ReusedCounterStaysExactAcrossSizes) {
  // One counter over shrinking and growing traces, across the
  // one-pass/two-pass boundary both ways: stale tallies of a larger
  // earlier call must never leak into a later one.
  MultiplicityCounter mc;
  std::uint64_t seed = 500;
  for (const std::size_t n :
       {std::size_t{1} << 18, std::size_t{10}, std::size_t{1} << 15,
        kOnePassKeys + 1, kOnePassKeys, std::size_t{1} << 18,
        std::size_t{3000}}) {
    const auto keys = random_keys(n, n / 3 + 1, seed++);
    const auto want = sort_count(keys);
    const util::Multiplicity m = mc.count(keys);
    EXPECT_EQ(m.max, want.max_contention) << n;
    EXPECT_EQ(m.distinct, want.distinct) << n;
  }
}

TEST(LocationCounterDiff, RejectsSpansBeyondTheCountLimit) {
  MultiplicityCounter mc;
  try {
    mc.reserve(MultiplicityCounter::kMaxKeys + 1);
    FAIL() << "reserve accepted a span beyond the 32-bit count limit";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
  // Through count() and analyze_locations: a span over reserved,
  // inaccessible address space. The limit is checked before any read.
  const std::size_t n = MultiplicityCounter::kMaxKeys + 1;
  void* region = ::mmap(nullptr, n * sizeof(std::uint64_t), PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region == MAP_FAILED) GTEST_SKIP() << "cannot reserve 32 GiB of address space";
  const std::span<const std::uint64_t> huge(
      static_cast<const std::uint64_t*>(region), n);
  try {
    (void)mc.count(huge);
    ADD_FAILURE() << "count accepted a span beyond the limit";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
  try {
    (void)mem::analyze_locations(huge);
    ADD_FAILURE() << "analyze_locations accepted a span beyond the limit";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
  ::munmap(region, n * sizeof(std::uint64_t));
}

TEST(BankCounterDiff, MatchesPerElementBankOfForEveryMapping) {
  util::Xoshiro256 rng(1995);
  std::uint64_t seed = 7;
  for (const char* name :
       {"interleaved", "bit-reversal", "linear", "quadratic", "cubic"}) {
    for (const std::uint64_t banks : {1u, 7u, 64u, 256u, 1000u}) {
      const auto mapping = mem::make_mapping(name, banks, rng);
      for (const std::size_t n : {0u, 1u, 1023u, 1024u, 1025u, 5000u}) {
        const auto addrs = random_keys(n, seed % 2 == 0 ? 0 : 4096, seed);
        ++seed;
        std::vector<std::uint64_t> want(banks, 0);
        for (const std::uint64_t a : addrs) ++want[mapping->bank_of(a)];
        const mem::BankLoads got = mem::analyze_banks(addrs, *mapping);
        const std::string what = std::string(name) +
                                 " banks=" + std::to_string(banks) +
                                 " n=" + std::to_string(n);
        ASSERT_EQ(got.load, want) << what;
        EXPECT_EQ(got.total, n) << what;
        EXPECT_EQ(got.max_load, *std::max_element(want.begin(), want.end()))
            << what;
        EXPECT_EQ(got.nonempty_banks,
                  static_cast<std::uint64_t>(
                      std::count_if(want.begin(), want.end(),
                                    [](std::uint64_t l) { return l != 0; })))
            << what;
      }
    }
  }
}

// The machine's profile must be the pre-service route: on every
// scenario but the healthy one the served loads differ from it (failed
// and combined requests, failover spares, cache hits and write-backs),
// and the test checks that they do, so a machine that read its mapped
// load off the banks would fail here.
TEST(ProfileDiff, MachineProfileMatchesProfileAccess) {
  struct Scenario {
    std::string name;
    sim::MachineConfig cfg;
    fault::FaultConfig faults;
    std::uint64_t served_differs = 0;  // runs with max_bank_load != mapped
  };
  auto base = sim::MachineConfig::test_machine();  // p=4, d=4, L=8, x=4
  base.slackness = 1 << 20;  // window never binds: dense and SoA eligible
  std::vector<Scenario> scenarios;
  scenarios.push_back({"healthy", base, {}});
  {
    fault::FaultConfig fc;
    fc.seed = 11;
    fc.drop_rate = 0.2;
    fc.retry.max_retries = 1;
    scenarios.push_back({"drop/retry", base, fc});
  }
  {
    fault::FaultConfig fc;
    fc.seed = 5;
    fc.dead_fraction = 0.25;
    scenarios.push_back({"dead-bank failover", base, fc});
  }
  {
    auto cfg = base;
    cfg.bank_ports = 2;
    cfg.combine_requests = true;
    scenarios.push_back({"bank_ports=2 combining", cfg, {}});
  }
  {
    auto cfg = base;
    cfg.cache.capacity = 16;
    cfg.cache.line_words = 4;
    cfg.cache.write = cache::WritePolicy::kBack;
    scenarios.push_back({"cache tier", cfg, {}});
  }

  // A hot location plus a small reused space: combining and cache hits
  // both have something to merge.
  const auto addrs = workload::k_hot(3000, 300, 1 << 12, 1995);
  util::Xoshiro256 rng(1995);
  for (const char* name :
       {"interleaved", "bit-reversal", "linear", "quadratic", "cubic"}) {
    const std::shared_ptr<const mem::BankMapping> mapping =
        mem::make_mapping(name, base.banks(), rng);
    for (Scenario& sc : scenarios) {
      const core::Prediction want =
          core::predict_scatter(addrs, sc.cfg, mapping.get());
      ASSERT_NE(want.profile.h_bank_mapped, 0u) << name;
      const auto machines = testing_pins::pinned_machines(
          [&] { return std::make_unique<sim::Machine>(sc.cfg, mapping); });
      for (std::size_t i = 0; i < machines.size(); ++i) {
        sim::Machine& m = *machines[i];
        const std::string what = std::string(name) + " " + sc.name + " " +
                                 testing_pins::pin_name(testing_pins::kPins[i]);
        if (sc.faults.any())
          m.inject(std::make_shared<fault::FaultPlan>(sc.faults,
                                                      sc.cfg.banks()));
        const sim::BulkResult res = m.scatter_faulty(addrs).bulk;
        EXPECT_EQ(core::predict(res, sc.cfg), want) << what;
        EXPECT_EQ(core::predict(res, core::DxBspParams::from_config(sc.cfg)),
                  want)
            << what;
        if (res.max_bank_load != res.mapped_bank_load) ++sc.served_differs;
      }
    }
    sim::Machine bulk(base, mapping);
    EXPECT_EQ(core::predict(bulk.scatter_bulk_delivery(addrs), base),
              core::predict_scatter(addrs, base, mapping.get()))
        << name << " scatter_bulk_delivery";
  }
  // scatter_banks: its ids are banks, so the machine reads k and the
  // distinct count off its bank tally instead of counting; they must
  // still be analyze_locations' numbers over the same ids. The ids hit
  // only half the banks, so the distinct count is not the bank count.
  std::vector<std::uint64_t> bank_ids(addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i)
    bank_ids[i] = addrs[i] % (base.banks() / 2);
  const mem::LocationContention want_banks = mem::analyze_locations(bank_ids);
  ASSERT_GT(want_banks.max_contention, 300u);  // the hot address's bank
  ASSERT_LT(want_banks.distinct, base.banks());
  for (const Scenario& sc : scenarios) {
    if (sc.faults.any()) continue;  // scatter_banks throws when degraded
    const auto machines = testing_pins::pinned_machines(
        [&] { return std::make_unique<sim::Machine>(sc.cfg); });
    for (std::size_t i = 0; i < machines.size(); ++i) {
      const std::string what = "scatter_banks " + sc.name + " " +
                               testing_pins::pin_name(testing_pins::kPins[i]);
      const sim::BulkResult res = machines[i]->scatter_banks(bank_ids);
      EXPECT_EQ(res.max_location_contention, want_banks.max_contention)
          << what;
      EXPECT_EQ(res.distinct_locations, want_banks.distinct) << what;
      EXPECT_EQ(res.mapped_bank_load, want_banks.max_contention) << what;
    }
  }

  for (const Scenario& sc : scenarios) {
    if (sc.name == "healthy") {
      EXPECT_EQ(sc.served_differs, 0u) << sc.name;
    } else {
      EXPECT_GT(sc.served_differs, 0u) << sc.name;
    }
  }
}

}  // namespace
