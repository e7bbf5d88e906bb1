// Unit tests for the sweep-coordinator protocol pieces: shard specs and
// shard-scoped fingerprints, the framed wire format, the chaos spec
// grammar, the typed payload codecs, and the worker-side lease/resume
// logic (including the satellite-4 property: one shard's checkpoint can
// never be resumed as another's). The multi-process recovery paths are
// exercised end to end in svc_chaos_test.cpp.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/attribution.hpp"
#include "obs/drift.hpp"
#include "obs/report.hpp"
#include "obs/selector.hpp"
#include "resilience/error.hpp"
#include "resilience/shard.hpp"
#include "resilience/snapshot.hpp"
#include "resilience/sweep.hpp"
#include "sim/machine_config.hpp"
#include "svc/chaos.hpp"
#include "svc/payload.hpp"
#include "svc/wire.hpp"
#include "svc/worker.hpp"
#include "test_tmp.hpp"

namespace {

using namespace dxbsp;
using resilience::ShardSpec;

std::string tmp_path(const std::string& name) {
  return testing_tmp::path("dxbsp_svc_" + name);
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------- shards

TEST(ShardSpec, ParsesAndRoundTrips) {
  const auto s = ShardSpec::parse("2/8");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 8u);
  EXPECT_TRUE(s.sharded());
  EXPECT_EQ(s.str(), "2/8");
  EXPECT_EQ(ShardSpec::parse(s.str()), s);
  EXPECT_FALSE(ShardSpec{}.sharded());
}

TEST(ShardSpec, RejectsMalformedAndOutOfRange) {
  EXPECT_THROW((void)ShardSpec::parse(""), Error);
  EXPECT_THROW((void)ShardSpec::parse("2"), Error);
  EXPECT_THROW((void)ShardSpec::parse("a/4"), Error);
  EXPECT_THROW((void)ShardSpec::parse("1/0"), Error);
  EXPECT_THROW((void)ShardSpec::parse("4/4"), Error);
  EXPECT_THROW((void)ShardSpec::parse("5/4"), Error);
  try {
    (void)ShardSpec::parse("4/4");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

TEST(ShardSpec, SlicesPartitionTheGridExactly) {
  // Union over shards == the serial grid, order preserved, no overlap,
  // sizes balanced to within one — for several grid/shard combinations
  // including count > n (some shards legitimately empty).
  for (const std::size_t n : {0UL, 1UL, 5UL, 8UL, 13UL}) {
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < n; ++i) keys.push_back(100 + i * 7);
    for (const std::uint64_t count : {1ULL, 2ULL, 3ULL, 8ULL}) {
      std::vector<std::uint64_t> joined;
      std::size_t smallest = n + 1, largest = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const ShardSpec s{i, count};
        const auto slice = s.slice(keys);
        const auto [b, e] = s.range(n);
        EXPECT_EQ(slice.size(), e - b);
        smallest = std::min(smallest, slice.size());
        largest = std::max(largest, slice.size());
        joined.insert(joined.end(), slice.begin(), slice.end());
      }
      EXPECT_EQ(joined, keys) << "n=" << n << " count=" << count;
      if (n > 0) {
        EXPECT_LE(largest - smallest, 1u);
      }
    }
  }
}

TEST(ShardSpec, ShardScopedSweepIdsAreDistinct) {
  const std::uint64_t base = resilience::sweep_id("svc_test", {1, 2, 3});
  EXPECT_EQ(resilience::shard_sweep_id(base, ShardSpec{}), base)
      << "whole-grid spec must keep the base fingerprint";
  const std::uint64_t a = resilience::shard_sweep_id(base, {0, 4});
  const std::uint64_t b = resilience::shard_sweep_id(base, {1, 4});
  const std::uint64_t c = resilience::shard_sweep_id(base, {1, 8});
  EXPECT_NE(a, base);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c) << "same index, different count must differ";
}

// ------------------------------------------------------------------ wire

TEST(Wire, FrameRoundTrips) {
  const std::string framed = svc::wire_frame("lease", "{\"x\":1}");
  EXPECT_EQ(framed.substr(0, 7), svc::kWireMagic);
  const auto msg = svc::wire_parse(framed, "lease", "test");
  ASSERT_TRUE(msg.ok()) << msg.error().what();
  const auto* x = msg.value().find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->as_u64(), 1u);
}

// Single-bit flips and truncations of a frame are covered by the
// framed-file corruption harness (framed_file_test.cpp).
TEST(Wire, RejectsCorruption) {
  const std::string framed = svc::wire_frame("result", "{\"points\":12}");
  // Foreign magic / future version.
  std::string magic = framed;
  magic[6] = '9';
  // A well-formed frame of another type than the reader expects.
  const std::string lease = svc::wire_frame("lease", "{\"points\":12}");
  for (const std::string& bytes :
       {magic, lease, std::string(), std::string("not a frame at all")}) {
    const auto r = svc::wire_parse(bytes, "result", "t");
    ASSERT_FALSE(r.ok()) << bytes;
    EXPECT_EQ(r.error().code(), ErrorCode::kCorruptInput);
  }
}

TEST(Wire, FileRoundTripAndFailureModes) {
  const std::string path = tmp_path("wire.msg");
  svc::wire_write_file(path, "heartbeat", "{\"beat\":7}");
  const auto msg = svc::wire_read_file(path, "heartbeat");
  ASSERT_TRUE(msg.ok()) << msg.error().what();
  const auto* beat = msg.value().find("beat");
  ASSERT_NE(beat, nullptr);
  EXPECT_EQ(beat->as_u64(), 7u);
  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "tmp file left behind after rename";
  }

  const auto missing =
      svc::wire_read_file(tmp_path("wire_missing.msg"), "heartbeat");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kIo)
      << "missing message must read as retryable, not corrupt";

  write_raw(path, "DXSVCW1 heartbeat 10 00000000\n{\"beat\":7}");
  const auto corrupt = svc::wire_read_file(path, "heartbeat");
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.error().code(), ErrorCode::kCorruptInput);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- chaos

TEST(Chaos, ParsesTheFullGrammar) {
  const auto plan = svc::ChaosPlan::parse(
      "shard=1,attempt=0,phase=point:2,action=kill;"
      "shard=3,phase=lease,action=exit:70;"
      "shard=0,attempt=2,phase=result,action=hang");
  ASSERT_EQ(plan.events().size(), 3u);
  const auto& e0 = plan.events()[0];
  EXPECT_EQ(e0.shard, 1u);
  ASSERT_TRUE(e0.attempt.has_value());
  EXPECT_EQ(*e0.attempt, 0u);
  EXPECT_EQ(e0.phase, svc::ChaosPhase::kPoint);
  EXPECT_EQ(e0.point, 2u);
  EXPECT_EQ(e0.action, svc::ChaosAction::kKill);
  const auto& e1 = plan.events()[1];
  EXPECT_FALSE(e1.attempt.has_value()) << "omitted attempt = every attempt";
  EXPECT_EQ(e1.phase, svc::ChaosPhase::kLease);
  EXPECT_EQ(e1.action, svc::ChaosAction::kExit);
  EXPECT_EQ(e1.exit_code, 70);
  EXPECT_EQ(plan.events()[2].action, svc::ChaosAction::kHang);
  EXPECT_TRUE(svc::ChaosPlan::parse("").empty());
}

TEST(Chaos, RejectsMalformedSpecs) {
  for (const auto* spec :
       {"phase=lease,action=kill",              // missing shard
        "shard=1,action=kill",                  // missing phase
        "shard=1,phase=lease",                  // missing action
        "shard=x,phase=lease,action=kill",      // bad number
        "shard=1,phase=warp,action=kill",       // unknown phase
        "shard=1,phase=point:0,action=kill",    // point counts from 1
        "shard=1,phase=lease,action=explode",   // unknown action
        "shard=1,phase=lease,action=exit:x"}) {
    try {
      (void)svc::ChaosPlan::parse(spec);
      FAIL() << "accepted: " << spec;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << spec;
    }
  }
}

TEST(Chaos, MatchRespectsShardAttemptPhaseAndPoint) {
  const auto plan = svc::ChaosPlan::parse(
      "shard=1,attempt=1,phase=point:2,action=kill;"
      "shard=2,phase=lease,action=exit:70");
  using svc::ChaosPhase;
  EXPECT_EQ(plan.match(0, 0, ChaosPhase::kLease), nullptr);
  EXPECT_EQ(plan.match(1, 0, ChaosPhase::kPoint, 2), nullptr)
      << "attempt-pinned event must not fire on other attempts";
  EXPECT_EQ(plan.match(1, 1, ChaosPhase::kPoint, 1), nullptr)
      << "point event fires at its exact point only";
  ASSERT_NE(plan.match(1, 1, ChaosPhase::kPoint, 2), nullptr);
  // Wildcard attempt fires on every attempt — the quarantine path.
  for (const std::uint64_t attempt : {0ULL, 1ULL, 7ULL}) {
    const auto* hit = plan.match(2, attempt, ChaosPhase::kLease);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->action, svc::ChaosAction::kExit);
  }
}

// -------------------------------------------------------------- payloads

template <typename T, typename Decode>
T reencode(const std::string& type, const std::string& json, Decode decode) {
  const auto msg = svc::wire_parse(svc::wire_frame(type, json), type, "test");
  EXPECT_TRUE(msg.ok());
  auto decoded = decode(msg.value());
  EXPECT_TRUE(decoded.ok()) << decoded.error().what();
  return std::move(decoded).value();
}

TEST(Payload, LeaseRoundTrips) {
  svc::LeaseMsg m;
  m.shard = "3/8";
  m.attempt = 2;
  m.resume_points = 5;
  m.hb_interval_seconds = 0.05;
  m.chaos = "shard=3,phase=lease,action=kill";
  const auto r = reencode<svc::LeaseMsg>(svc::kMsgLease, svc::encode_lease(m),
                                         svc::decode_lease);
  EXPECT_EQ(r.shard, m.shard);
  EXPECT_EQ(r.attempt, m.attempt);
  EXPECT_EQ(r.resume_points, m.resume_points);
  EXPECT_EQ(r.hb_interval_seconds, m.hb_interval_seconds);
  EXPECT_EQ(r.chaos, m.chaos);
}

TEST(Payload, HeartbeatRoundTrips) {
  svc::HeartbeatMsg m;
  m.shard = "0/2";
  m.attempt = 1;
  m.beat = 123456;
  m.completed = 3;
  m.total = 9;
  const auto r = reencode<svc::HeartbeatMsg>(
      svc::kMsgHeartbeat, svc::encode_heartbeat(m), svc::decode_heartbeat);
  EXPECT_EQ(r.shard, m.shard);
  EXPECT_EQ(r.attempt, m.attempt);
  EXPECT_EQ(r.beat, m.beat);
  EXPECT_EQ(r.completed, m.completed);
  EXPECT_EQ(r.total, m.total);
}

svc::AggregatesMsg sample_aggregates() {
  svc::AggregatesMsg m;
  m.shard = "1/4";
  m.attempt = 3;
  m.covered = 2;
  obs::MetricsRegistry::Entry counter;
  counter.name = "sim.retries";
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 42;
  obs::MetricsRegistry::Entry gauge;
  gauge.name = "sweep.peak_queue";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.value = 17;
  obs::MetricsRegistry::Entry histo;
  histo.name = "sim.bank_queue_depth";
  histo.kind = obs::MetricKind::kHistogram;
  histo.bounds = {1, 2, 4};
  histo.bucket_counts = {10, 5, 2, 1};
  m.metrics = {counter, gauge, histo};
  m.attribution.supersteps = 2;
  m.attribution.cycles = 9000;
  m.attribution.terms.issue_gap = 100;
  m.attribution.terms.bank_service = 8000;
  m.attribution.terms.retry_backoff = 900;
  m.attribution.sketch.counts[0] = 3;
  m.attribution.sketch.counts[64] = 1;
  m.attribution.sketch.overflow = 2;
  m.attribution.sketch.banks = 6;
  m.attribution.sketch.max = 70;
  m.attribution.sketch.served = 80;
  m.attribution.max_location_contention = 64;
  m.has_drift = true;
  m.drift.band = 0.25;
  m.drift.supersteps = 2;
  m.drift.out_of_band = 1;
  m.drift.max_abs_rel_err = 0.31;
  m.drift.worst.valid = true;
  m.drift.worst.measured = 1300;
  m.drift.worst.predicted = 990.5;
  m.drift.worst.rel_err = 0.3125;
  m.drift.worst.n = 4096;
  return m;
}

TEST(Payload, AggregatesRoundTripIncludingHistogramsAndDrift) {
  const auto m = sample_aggregates();
  const auto r = reencode<svc::AggregatesMsg>(
      svc::kMsgAggregates, svc::encode_aggregates(m), svc::decode_aggregates);
  EXPECT_EQ(r.shard, m.shard);
  EXPECT_EQ(r.covered, m.covered);
  ASSERT_EQ(r.metrics.size(), 3u);
  EXPECT_EQ(r.metrics[0].name, "sim.retries");
  EXPECT_EQ(r.metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(r.metrics[0].value, 42u);
  EXPECT_EQ(r.metrics[1].kind, obs::MetricKind::kGauge);
  EXPECT_EQ(r.metrics[2].bounds, m.metrics[2].bounds);
  EXPECT_EQ(r.metrics[2].bucket_counts, m.metrics[2].bucket_counts);
  EXPECT_EQ(r.attribution.supersteps, 2u);
  EXPECT_EQ(r.attribution.terms.retry_backoff, 900u);
  EXPECT_EQ(r.attribution.sketch.counts, m.attribution.sketch.counts);
  EXPECT_EQ(r.attribution.sketch.max, 70u);
  ASSERT_TRUE(r.has_drift);
  EXPECT_EQ(r.drift.band, 0.25);
  EXPECT_EQ(r.drift.out_of_band, 1u);
  ASSERT_TRUE(r.drift.worst.valid);
  EXPECT_EQ(r.drift.worst.predicted, 990.5);

  svc::AggregatesMsg no_drift = m;
  no_drift.has_drift = false;
  const auto r2 = reencode<svc::AggregatesMsg>(
      svc::kMsgAggregates, svc::encode_aggregates(no_drift),
      svc::decode_aggregates);
  EXPECT_FALSE(r2.has_drift);
}

// The attribution, drift and selector objects of an aggregates message
// are the run report's sections: same writer, same depth, same bytes.
TEST(Payload, AggregatesSectionsAreTheRunReportSections) {
  obs::AttributionAggregate attribution;
  obs::CostBreakdown terms;
  terms.issue_gap = 40;
  terms.bank_service = 60;
  obs::BankLoadSketch sketch;
  for (const std::uint64_t load : {0, 3, 3, 70}) sketch.observe(load);
  attribution.record(terms, sketch, 5, 100);

  obs::DriftDetector drift(obs::DriftConfig{0.25});
  const auto cfg = sim::MachineConfig::test_machine();
  obs::DriftSample sample;
  sample.track = 2;
  sample.step = 1;
  sample.cycles = 5000;
  sample.n = 1000;
  sample.h_proc = 250;
  sample.h_bank = 70;
  sample.location_contention = 3;
  sample.breakdown = terms;
  sample.mapping = "interleaved";
  sample.config = &cfg;
  drift.observe(sample);

  obs::SelectorLog selector;
  obs::SelectorRow row;
  row.track = 2;
  row.step = 1;
  row.n = 1000;
  row.eligible_soa = true;
  row.choice = obs::EngineChoice::kSoA;
  row.measured = 5000;
  selector.record(row);
  row.step = 0;
  row.forced = true;
  row.choice = obs::EngineChoice::kHeap;
  selector.record(row);

  std::ostringstream report;
  obs::MetricsRegistry reg;
  obs::write_report_json(report, obs::RunInfo{}, reg, nullptr, &attribution,
                         &drift, &selector);
  svc::AggregatesMsg m;
  m.attribution = attribution.snapshot();
  m.has_drift = true;
  m.drift = drift.snapshot();
  m.selector = selector.snapshot();
  const std::string wire = svc::encode_aggregates(m);

  // A top-level member's object runs from its key to the first closing
  // brace back at the two-space indent.
  const auto section = [](const std::string& doc, const std::string& key) {
    const std::size_t begin = doc.find("\n  \"" + key + "\": {");
    const std::size_t end = doc.find("\n  }", begin);
    EXPECT_NE(begin, std::string::npos) << key;
    EXPECT_NE(end, std::string::npos) << key;
    return doc.substr(begin, end - begin);
  };
  for (const char* key : {"attribution", "drift", "selector"}) {
    EXPECT_EQ(section(wire, key), section(report.str(), key)) << key;
    EXPECT_GT(section(wire, key).size(), 100u) << key;
  }
}

// Corrupting one member of an encoded aggregates message must fail the
// decode with kCorruptInput, naming the member.
void expect_rejected(const std::string& json, const std::string& from,
                     const std::string& to, const std::string& why) {
  std::string bad = json;
  const std::size_t at = bad.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  bad.replace(at, from.size(), to);
  const auto doc = obs::JsonValue::parse(bad, "test");
  ASSERT_TRUE(doc.ok()) << doc.error().what();
  const auto agg = svc::decode_aggregates(doc.value());
  ASSERT_FALSE(agg.ok()) << "accepted " << to;
  EXPECT_EQ(agg.error().code(), ErrorCode::kCorruptInput);
  EXPECT_NE(std::string(agg.error().what()).find(why), std::string::npos)
      << agg.error().what();
}

std::string encoded_sample_with_selector() {
  svc::AggregatesMsg m = sample_aggregates();
  obs::SelectorRow row;
  row.choice = obs::EngineChoice::kDense;
  m.selector.rows.push_back(row);
  return svc::encode_aggregates(m);
}

TEST(Payload, RejectsArrayItemsThatAreNotNumbers) {
  const std::string json = encoded_sample_with_selector();
  // A bank-load count and a histogram bucket used to read as 0.
  expect_rejected(json, "\"counts\": [\n        3,",
                  "\"counts\": [\n        \"x\",", "counts");
  expect_rejected(json, "\"counts\": [\n        10,",
                  "\"counts\": [\n        \"x\",", "counts");
  expect_rejected(json, "\"bounds\": [\n        1,",
                  "\"bounds\": [\n        true,", "bounds");
}

TEST(Payload, RejectsHistogramCountsThatDoNotMatchBounds) {
  const std::string json = encoded_sample_with_selector();
  // One bucket short: Histogram::add_counts would throw kConfig only when
  // the coordinator merged it, after every shard had finished.
  expect_rejected(json, "\"counts\": [\n        10,\n", "\"counts\": [\n",
                  "buckets");
  expect_rejected(json, "\"bounds\": [\n        1,\n        2,",
                  "\"bounds\": [\n        2,\n        1,", "sorted");
}

TEST(Payload, RejectsUnknownSelectorChoice) {
  const std::string json = encoded_sample_with_selector();
  expect_rejected(json, "\"choice\": \"dense\"", "\"choice\": \"warp\"",
                  "unknown choice 'warp'");
}

TEST(Payload, RejectsForeignSectionSchemaVersions) {
  const std::string json = encoded_sample_with_selector();
  for (const char* section : {"attribution", "drift", "selector"}) {
    const std::string key = std::string("\"") + section + "\": {";
    const std::string current = "\n    \"schema_version\": 2,";
    expect_rejected(json, key + current, key + "\n    \"schema_version\": 3,",
                    std::string(section) + ": schema_version 3");
  }
  expect_rejected(json, "\"kind\": \"gauge\"", "\"kind\": \"meter\"",
                  "unknown kind 'meter'");
  expect_rejected(json, "\"stability\": \"deterministic\"",
                  "\"stability\": \"fickle\"", "unknown stability");
}

// An attempt's last aggregates message is its outcome: the status, cause,
// slice size, wall clock and run identity travel with the aggregates.
TEST(Payload, ResultRoundTrips) {
  svc::AggregatesMsg m = sample_aggregates();
  m.status = "completed";
  m.cause = "none";
  m.total = 3;
  m.elapsed_seconds = 0.75;
  m.info.bench = "Fig 4 / Experiment 1";
  m.info.description = "Scatter time vs contention k";
  m.info.machine = "cray-j90";
  m.info.seed = 1995;
  m.info.flags = {{"n", "4096"}, {"seed", "1995"}};
  const auto r = reencode<svc::AggregatesMsg>(
      svc::kMsgAggregates, svc::encode_aggregates(m), svc::decode_aggregates);
  EXPECT_EQ(r.shard, m.shard);
  EXPECT_EQ(r.status, "completed");
  EXPECT_EQ(r.cause, "none");
  EXPECT_EQ(r.total, 3u);
  EXPECT_EQ(r.elapsed_seconds, 0.75);
  EXPECT_EQ(r.info.bench, m.info.bench);
  EXPECT_EQ(r.info.machine, m.info.machine);
  EXPECT_EQ(r.info.seed, 1995u);
  EXPECT_EQ(r.info.flags, m.info.flags);
  EXPECT_EQ(r.covered, 2u);
  EXPECT_EQ(r.metrics.size(), 3u);

  // A running attempt's messages carry an empty status.
  m.status.clear();
  EXPECT_EQ(reencode<svc::AggregatesMsg>(svc::kMsgAggregates,
                                         svc::encode_aggregates(m),
                                         svc::decode_aggregates)
                .status,
            "");
}

TEST(Payload, DecodersReturnErrorsInsteadOfThrowing) {
  // A half-dead worker writing structurally-valid JSON with the wrong
  // shape must be a decode error the coordinator turns into a strike.
  const auto msg = svc::wire_parse(
      svc::wire_frame(svc::kMsgLease, "{\"shard\":\"0/2\"}"), svc::kMsgLease,
      "t");
  ASSERT_TRUE(msg.ok());
  const auto lease = svc::decode_lease(msg.value());
  EXPECT_FALSE(lease.ok());
  const auto hb = svc::decode_heartbeat(msg.value());
  EXPECT_FALSE(hb.ok());
  const auto agg = svc::decode_aggregates(msg.value());
  EXPECT_FALSE(agg.ok());
  const auto fs = svc::decode_fleet_status(msg.value());
  EXPECT_FALSE(fs.ok());
}

// The lease names no files: both sides name them with attempt_files.
// Every file is the attempt's own except the checkpoint, which a shard's
// attempts share; and since both sides are one build, a lease or
// heartbeat missing a member is a decode error, not a default.
TEST(Payload, LeaseCarriesObservabilityPathsAndTolerateTheirAbsence) {
  const svc::AttemptFiles a0 = svc::attempt_files("d", 1, 0);
  const svc::AttemptFiles a1 = svc::attempt_files("d", 1, 1);
  const svc::AttemptFiles other = svc::attempt_files("d", 2, 0);
  EXPECT_EQ(a0.lease, "d/shard-1.attempt-0.lease");
  EXPECT_EQ(a0.flight, "d/shard-1.attempt-0.flight");
  const std::vector<std::string> names = {a0.lease,      a0.heartbeat,
                                          a0.aggregates, a0.checkpoint,
                                          a0.flight,     a0.log};
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  EXPECT_NE(a0.lease, a1.lease);
  EXPECT_NE(a0.heartbeat, a1.heartbeat);
  EXPECT_NE(a0.aggregates, a1.aggregates);
  EXPECT_NE(a0.flight, a1.flight);
  EXPECT_NE(a0.log, a1.log);
  EXPECT_EQ(a0.checkpoint, a1.checkpoint);
  EXPECT_NE(a0.checkpoint, other.checkpoint);

  const auto parse = [](const std::string& type, const std::string& json) {
    const auto msg =
        svc::wire_parse(svc::wire_frame(type, json), type, "test");
    EXPECT_TRUE(msg.ok());
    return msg.value();
  };
  const auto lease = svc::decode_lease(parse(
      svc::kMsgLease,
      "{\"shard\":\"1/2\",\"attempt\":0,\"resume_points\":0,"
      "\"chaos\":\"\"}"));
  ASSERT_FALSE(lease.ok()) << "a lease without hb_interval_seconds";
  EXPECT_EQ(lease.error().code(), ErrorCode::kCorruptInput);
  EXPECT_NE(std::string(lease.error().what()).find("hb_interval_seconds"),
            std::string::npos)
      << lease.error().what();

  const auto hb = svc::decode_heartbeat(parse(
      svc::kMsgHeartbeat,
      "{\"shard\":\"1/2\",\"attempt\":0,\"beat\":3,\"completed\":1,"
      "\"total\":4}"));
  ASSERT_FALSE(hb.ok()) << "a heartbeat without mono_us and events";
  EXPECT_EQ(hb.error().code(), ErrorCode::kCorruptInput);
}

// The live per-shard telemetry sweep_top reads travels in fleet.status
// rows: the attempt's resume base and its last heartbeat's worker clock
// beside the progress and event counts.
TEST(Payload, TelemetryRoundTrips) {
  svc::FleetStatusMsg m;
  m.shards = 4;
  svc::FleetStatusMsg::Shard row;
  row.shard = "2/4";
  row.phase = "running";
  row.attempt = 1;
  row.completed = 5;
  row.total = 9;
  row.events = 70000;
  row.updated_us = 4200;
  row.resumed = 2;
  row.beat_us = 123456;
  m.rows.push_back(row);
  const auto r = reencode<svc::FleetStatusMsg>(svc::kMsgFleetStatus,
                                               svc::encode_fleet_status(m),
                                               svc::decode_fleet_status);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].shard, "2/4");
  EXPECT_EQ(r.rows[0].completed, 5u);
  EXPECT_EQ(r.rows[0].events, 70000u);
  EXPECT_EQ(r.rows[0].resumed, 2u);
  EXPECT_EQ(r.rows[0].beat_us, 123456u);
}

TEST(Payload, FleetStatusRoundTrips) {
  svc::FleetStatusMsg m;
  m.mono_us = 5000;
  m.ended = "degraded";
  m.shards = 4;
  m.completed_shards = 1;
  m.leases_granted = 5;
  m.retries = 1;
  m.worker_deaths = 1;
  m.stalls = 0;
  m.revocations = 1;
  m.strikes = 2;
  m.points_total = 64;
  m.points_completed = 20;
  m.rows.push_back({"0/4", "done", 0, 16, 16, 9000, 4000, 0, 81000});
  m.rows.push_back({"1/4", "running", 1, 4, 16, 2200, 4900, 3, 7000});
  const auto r = reencode<svc::FleetStatusMsg>(svc::kMsgFleetStatus,
                                               svc::encode_fleet_status(m),
                                               svc::decode_fleet_status);
  EXPECT_EQ(r.shards, 4u);
  EXPECT_EQ(r.revocations, 1u);
  EXPECT_EQ(r.strikes, 2u);
  EXPECT_EQ(r.points_completed, 20u);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].phase, "done");
  EXPECT_EQ(r.rows[1].shard, "1/4");
  EXPECT_EQ(r.rows[1].events, 2200u);
  EXPECT_EQ(r.rows[1].updated_us, 4900u);
  EXPECT_EQ(r.rows[0].resumed, 0u);
  EXPECT_EQ(r.rows[0].beat_us, 81000u);
  EXPECT_EQ(r.rows[1].resumed, 3u);
  EXPECT_EQ(r.rows[1].beat_us, 7000u);
  EXPECT_EQ(r.ended, "degraded");
  // A live publication (fleet still running) carries an empty `ended`.
  m.ended.clear();
  EXPECT_EQ(reencode<svc::FleetStatusMsg>(svc::kMsgFleetStatus,
                                          svc::encode_fleet_status(m),
                                          svc::decode_fleet_status)
                .ended,
            "");
}

// Satellite: decoder fuzz. Every truncation and every single-bit flip
// of every message type must come back as an Expected error (or, for
// mutations the CRC happens to miss and JSON happens to survive, a
// decoded value) — never a throw, crash or sanitizer report. The wire
// level exercises framing/CRC; mutating the bare JSON payload bypasses
// the CRC shield and drives the same corruption into the typed
// decoders themselves.
template <typename Decode>
void fuzz_decoder(const std::string& type, const std::string& json,
                  Decode decode) {
  const std::string framed = svc::wire_frame(type, json);
  for (std::size_t len = 0; len < framed.size(); ++len) {
    const auto msg = svc::wire_parse(framed.substr(0, len), type, "fuzz");
    if (msg.ok()) (void)decode(msg.value());
  }
  for (std::size_t i = 0; i < framed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mut = framed;
      mut[i] = static_cast<char>(mut[i] ^ (1 << bit));
      const auto msg = svc::wire_parse(mut, type, "fuzz");
      if (msg.ok()) (void)decode(msg.value());
    }
  }
  for (std::size_t len = 0; len < json.size(); ++len) {
    const auto doc = obs::JsonValue::parse(json.substr(0, len), "fuzz");
    if (doc.ok()) (void)decode(doc.value());
  }
  for (std::size_t i = 0; i < json.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mut = json;
      mut[i] = static_cast<char>(mut[i] ^ (1 << bit));
      const auto doc = obs::JsonValue::parse(mut, "fuzz");
      if (doc.ok()) (void)decode(doc.value());
    }
  }
}

TEST(Payload, FuzzEveryTruncationAndBitFlipIsAnExpectedError) {
  svc::LeaseMsg lease;
  lease.shard = "1/4";
  lease.attempt = 2;
  lease.hb_interval_seconds = 0.05;
  lease.chaos = "shard=1,phase=point:2,action=kill";
  fuzz_decoder(svc::kMsgLease, svc::encode_lease(lease), svc::decode_lease);

  svc::HeartbeatMsg hb;
  hb.shard = "1/4";
  hb.beat = 77;
  hb.completed = 3;
  hb.total = 9;
  hb.mono_us = 123456;
  hb.events = 4096;
  fuzz_decoder(svc::kMsgHeartbeat, svc::encode_heartbeat(hb),
               svc::decode_heartbeat);

  svc::AggregatesMsg agg = sample_aggregates();
  agg.status = "completed";
  agg.cause = "none";
  agg.total = 3;
  agg.info.bench = "fuzz";
  agg.info.flags = {{"n", "4096"}};
  fuzz_decoder(svc::kMsgAggregates, svc::encode_aggregates(agg),
               svc::decode_aggregates);

  svc::FleetStatusMsg fs;
  fs.shards = 2;
  fs.points_total = 8;
  fs.rows.push_back({"0/2", "running", 0, 1, 4, 100, 50, 1, 9000});
  fuzz_decoder(svc::kMsgFleetStatus, svc::encode_fleet_status(fs),
               svc::decode_fleet_status);
}

// ------------------------------------------------- worker lease handling

/// Writes attempt 1's lease for `shard` where attempt_files puts it, in
/// `tag`'s own directory, and returns the attempt's files: the worker
/// names the rest from the lease's directory.
svc::AttemptFiles write_lease(const std::string& tag, const std::string& shard,
                              std::uint64_t resume_points) {
  const std::string dir = tmp_path(tag);
  std::filesystem::create_directories(dir);
  svc::LeaseMsg lease;
  lease.shard = shard;
  lease.attempt = 1;
  lease.resume_points = resume_points;
  lease.hb_interval_seconds = 0.05;
  const svc::AttemptFiles files =
      svc::attempt_files(dir, ShardSpec::parse(shard).index, lease.attempt);
  svc::wire_write_file(files.lease, svc::kMsgLease, svc::encode_lease(lease));
  return files;
}

std::vector<std::uint64_t> grid_keys() { return {10, 11, 12, 13, 14, 15}; }

resilience::SnapshotRecord record_for(std::uint64_t key) {
  resilience::SnapshotRecord rec;
  rec.key = key;
  rec.rng_state = key * 3;
  rec.result.cycles = key * 100;
  return rec;
}

TEST(Worker, RefusesAForeignShardsCheckpoint) {
  // Shard 1's worker finding shard 0's checkpoint (same grid!) must
  // refuse with kConfig, not silently resume foreign points.
  const std::uint64_t base = resilience::sweep_id("svc_worker_test", {6});
  const auto files = write_lease("shard1", "1/2", 1);
  const auto keys0 = ShardSpec{0, 2}.slice(grid_keys());
  std::vector<resilience::SnapshotRecord> recs;
  for (const auto k : keys0) recs.push_back(record_for(k));
  resilience::CheckpointWriter foreign(
      files.checkpoint, resilience::shard_sweep_id(base, ShardSpec{0, 2}));
  foreign.flush(recs);

  svc::WorkerContext worker;
  worker.init(files.lease);
  ASSERT_TRUE(worker.active());
  auto keys = grid_keys();
  resilience::SweepOptions opt;
  obs::AttributionAggregate attribution;
  try {
    (void)worker.prepare(base, keys, opt, obs::RunInfo{}, &attribution,
                         nullptr);
    FAIL() << "expected Error{kConfig}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_NE(std::string(e.what()).find("different sweep"),
              std::string::npos)
        << e.what();
  }
}

TEST(Worker, TruncatesCheckpointToTheBankedPrefix) {
  // The lease says 1 point was banked but the dead attempt checkpointed
  // 2: the uncaptured tail must be truncated so its point is recomputed
  // and aggregated exactly once.
  const std::uint64_t base = resilience::sweep_id("svc_worker_test", {6});
  const ShardSpec spec{1, 2};
  const auto slice = spec.slice(grid_keys());
  ASSERT_EQ(slice.size(), 3u);
  const std::uint64_t shard_id = resilience::shard_sweep_id(base, spec);
  std::vector<resilience::SnapshotRecord> recs;
  for (std::size_t i = 0; i < 2; ++i) recs.push_back(record_for(slice[i]));
  const auto files = write_lease("trunc", "1/2", 1);
  resilience::CheckpointWriter writer(files.checkpoint, shard_id);
  writer.flush(recs);

  svc::WorkerContext worker;
  worker.init(files.lease);
  auto keys = grid_keys();
  resilience::SweepOptions opt;
  obs::AttributionAggregate attribution;
  const std::uint64_t id = worker.prepare(base, keys, opt, obs::RunInfo{},
                                          &attribution, nullptr);
  EXPECT_EQ(id, shard_id);
  EXPECT_EQ(keys, slice) << "prepare must slice the grid to the shard";
  EXPECT_EQ(opt.threads, 0u);
  EXPECT_EQ(opt.resume_path, files.checkpoint);

  const auto snap = resilience::Snapshot::load(files.checkpoint);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap.value().records.size(), 1u)
      << "uncaptured tail record must be gone";
  EXPECT_EQ(snap.value().records[0].key, slice[0]);
}

TEST(Worker, RejectsACheckpointShorterThanTheBankedPrefix) {
  // Banked 2 points but the checkpoint only holds 1: that checkpoint
  // cannot reproduce what the coordinator already aggregated — corrupt.
  const std::uint64_t base = resilience::sweep_id("svc_worker_test", {6});
  const ShardSpec spec{1, 2};
  const auto slice = spec.slice(grid_keys());
  const auto files = write_lease("short", "1/2", 2);
  resilience::CheckpointWriter writer(
      files.checkpoint, resilience::shard_sweep_id(base, spec));
  std::vector<resilience::SnapshotRecord> recs = {record_for(slice[0])};
  writer.flush(recs);

  svc::WorkerContext worker;
  worker.init(files.lease);
  auto keys = grid_keys();
  resilience::SweepOptions opt;
  obs::AttributionAggregate attribution;
  try {
    (void)worker.prepare(base, keys, opt, obs::RunInfo{}, &attribution,
                         nullptr);
    FAIL() << "expected Error{kCorruptSnapshot}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptSnapshot);
  }
}

TEST(Worker, InactiveContextIsAPassthrough) {
  svc::WorkerContext worker;
  EXPECT_FALSE(worker.active());
  auto keys = grid_keys();
  const auto before = keys;
  resilience::SweepOptions opt;
  const std::uint64_t id =
      worker.prepare(42, keys, opt, obs::RunInfo{}, nullptr, nullptr);
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(keys, before);
}

}  // namespace
