// The benchmark's own tests: sample statistics, span accounting, the
// output checks, and a tiny-size pass of every workload.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "runner.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Relative to the working directory (the build tree under run.py).
std::string scratch_base() {
  const auto dir = std::filesystem::current_path() / "test-scratch";
  std::filesystem::create_directories(dir);
  return dir.string();
}

RunConfig tiny(const std::string& workload, bool trace = false) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 7;
  cfg.seconds = 0.2;
  cfg.trace = trace;
  cfg.tiny = true;
  cfg.out_dir = scratch_base();
  cfg.tmp_base = scratch_base();
  return cfg;
}

const Metric* find(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return &m;
  return nullptr;
}

TEST(Stats, QuantileInterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({10, 20}, 0.9), 19.0);
  EXPECT_DOUBLE_EQ(median({5}), 5.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile({1}, 1.5), std::invalid_argument);
}

TEST(Stats, SamplesBeyondPercentileUseCeilingRank) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(109, 90), 10u);
  EXPECT_EQ(samples_beyond(0, 90), 0u);
  EXPECT_EQ(samples_beyond(10, 50), 5u);
}

TEST(Stats, P90IsWithheldBelowTenSamplesBeyondIt) {
  std::vector<double> xs;
  for (int i = 1; i <= 99; ++i) xs.push_back(i);
  TimingSummary s = summarize(xs);
  EXPECT_EQ(s.count, 99u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_FALSE(s.p90.has_value());

  xs.push_back(100);
  s = summarize(xs);
  ASSERT_TRUE(s.p90.has_value());
  EXPECT_DOUBLE_EQ(*s.p90, 90.1);
}

TEST(Stats, DigestIsOrderSensitive) {
  Digest a, b;
  a.add({1, 2});
  b.add({2, 1});
  EXPECT_NE(a.value(), b.value());
  Digest c;
  c.add(1);
  c.add(2);
  EXPECT_EQ(a.value(), c.value());
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec;
  const std::uint64_t root = rec.open("op", 1, 0);
  const std::uint64_t child = rec.open("layer", 1, root);
  rec.close(child, 10);
  rec.close(root, 10);
  const auto& spans = rec.spans();
  const double root_ns = static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  const double child_ns = static_cast<double>(spans[1].end_ns - spans[1].start_ns);
  const auto self = rec.self_times();
  EXPECT_DOUBLE_EQ(self.at("op").ns, root_ns - child_ns);
  EXPECT_DOUBLE_EQ(self.at("layer").ns, child_ns);
  EXPECT_EQ(rec.total("layer").items, 10u);
  EXPECT_EQ(rec.total("absent").calls, 0u);

  std::ostringstream json;
  rec.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"parent_id\":1"), std::string::npos);
  EXPECT_NE(json.str().find("\"op_id\":1"), std::string::npos);
}

TEST(Spans, NullRecorderScopeIsANoOp) {
  Scope s(nullptr, "op", 1, 0);
  s.set_items(5);
  EXPECT_EQ(s.id(), 0u);
  EXPECT_EQ(s.close(), 0);
}

class TinyWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyWorkload, UntracedPassHasNoFailures) {
  std::ostringstream log;
  const RunResult r = run_benchmark(tiny(GetParam()), log);
  EXPECT_TRUE(r.correct) << log.str();
  EXPECT_EQ(r.failed, 0u) << log.str();
  EXPECT_GT(r.attempted, 0u);
  for (const MetricSpec& s : end_to_end_metrics()) {
    if (std::string(s.name) == "op_ms_p90") continue;  // needs 100 ops
    const Metric* m = find(r, s.name);
    ASSERT_NE(m, nullptr) << s.name;
    EXPECT_GT(m->value, 0.0) << s.name;
  }
}

TEST_P(TinyWorkload, TracedPassReportsEveryLayerMetric) {
  std::ostringstream log;
  const RunResult r = run_benchmark(tiny(GetParam(), true), log);
  EXPECT_EQ(r.failed, 0u) << log.str();
  for (const MetricSpec& s : per_layer_metrics())
    EXPECT_NE(find(r, s.name), nullptr) << s.name;
  EXPECT_GT(find(r, "sim.fixed_op_ns")->value, 0.0);
  EXPECT_GT(find(r, "util.multiplicity_ns_per_elem")->value, 0.0);
}

TEST_P(TinyWorkload, ForcedDigestMismatchCountsAsFailed) {
  RunConfig cfg = tiny(GetParam());
  cfg.corrupt_digest = true;
  std::ostringstream log;
  const RunResult r = run_benchmark(cfg, log);
  EXPECT_FALSE(r.correct);
  EXPECT_GT(r.failed, 0u);
  EXPECT_NE(log.str().find("output digest mismatch"), std::string::npos);
}

TEST_P(TinyWorkload, RecordedDigestMismatchCountsAsFailed) {
  RunConfig cfg = tiny(GetParam());
  cfg.expect_digest = baseline_outputs(cfg).digest ^ 1;
  std::ostringstream log;
  const RunResult r = run_benchmark(cfg, log);
  EXPECT_FALSE(r.correct);
  EXPECT_GT(r.failed, 0u);
}

TEST_P(TinyWorkload, DigestDependsOnlyOnTheSeed) {
  RunConfig cfg = tiny(GetParam());
  EXPECT_EQ(baseline_outputs(cfg).digest, baseline_outputs(cfg).digest);
  RunConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(baseline_outputs(cfg).digest, baseline_outputs(other).digest);
}

TEST_P(TinyWorkload, ModelErrorMatchesRecordedAndOtherModeBitForBit) {
  RunConfig cfg = tiny(GetParam());
  const std::uint64_t bits = baseline_outputs(cfg).model_err_bits;
  std::ostringstream log;
  cfg.expect_model_err = bits;
  EXPECT_EQ(run_benchmark(cfg, log).failed, 0u) << log.str();

  cfg.expect_model_err = bits ^ 1;
  RunResult r = run_benchmark(cfg, log);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.failed, 1u);

  // A traced result stored with other bits fails the untraced run.
  cfg.expect_model_err.reset();
  const std::string peer = result_path(cfg, true);
  std::ofstream(peer) << "{\"model_rel_err_bits\": \"" << std::hex
                      << std::setw(16) << std::setfill('0') << (bits ^ 1)
                      << "\"}\n";
  r = run_benchmark(cfg, log);
  std::filesystem::remove(peer);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_NE(log.str().find("the traced run's"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(All, TinyWorkload,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
