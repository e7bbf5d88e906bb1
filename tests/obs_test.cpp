// Tests for the observability subsystem (docs/observability.md): the
// JSON emitter's escaping and NaN/Inf policy, the metrics registry's
// determinism and thread-safety, the trace ring's overflow accounting,
// the run-report writer, and — the load-bearing property — that trace
// event counts reconcile exactly with the simulator's BulkResult
// telemetry on a seeded faulty run.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "resilience/error.hpp"
#include "sim/machine.hpp"
#include "sim/machine_config.hpp"
#include "sim/telemetry.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

namespace dxbsp {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonEscape, QuotesAndBackslash) {
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("plain"), "plain");
}

TEST(JsonEscape, ControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(obs::json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(obs::json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(obs::json_escape("a\fb"), "a\\fb");
  // No short escape: \u00XX form.
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(obs::json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(obs::json_escape("\x1f"), "\\u001f");
}

TEST(JsonEscape, NonAsciiPassesThrough) {
  // UTF-8 is legal inside JSON strings; bytes >= 0x80 are untouched.
  EXPECT_EQ(obs::json_escape("héllo→∞"), "héllo→∞");
}

TEST(JsonNumber, NanAndInfBecomeNull) {
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(obs::json_number(-std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonNumber, FiniteValuesRoundTrip) {
  EXPECT_EQ(std::stod(obs::json_number(0.1)), 0.1);
  EXPECT_EQ(std::stod(obs::json_number(1e300)), 1e300);
  EXPECT_EQ(obs::json_number(0.0), "0");
}

TEST(JsonWriter, StructureAndCommas) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.member("a", std::uint64_t{1});
  w.key("list").begin_array();
  w.value(std::uint64_t{1}).value("two").value(true);
  w.end_array();
  w.key("nested").begin_object().member("x", 1.5).end_object();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    \"two\",\n"
            "    true\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"x\": 1.5\n"
            "  }\n"
            "}");
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("o").begin_object().end_object();
  w.key("a").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"o\": {},\n"
            "  \"a\": []\n"
            "}");
}

// ----------------------------------------------------- telemetry helpers

TEST(Telemetry, BankUtilizationGuardsZeroDenominator) {
  EXPECT_EQ(sim::bank_utilization_of(14, 100, 0, 50), 0.0);
  EXPECT_EQ(sim::bank_utilization_of(14, 100, 8, 0), 0.0);
  EXPECT_EQ(sim::bank_utilization_of(14, 0, 8, 50), 0.0);
  EXPECT_DOUBLE_EQ(sim::bank_utilization_of(2, 100, 10, 40), 0.5);
}

TEST(Telemetry, CyclesPerElementGuardsEmptySuperstep) {
  EXPECT_EQ(sim::cycles_per_element_of(1234, 0), 0.0);
  EXPECT_DOUBLE_EQ(sim::cycles_per_element_of(300, 100), 3.0);
}

// --------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  reg.counter("c").add();
  reg.counter("c").add(9);
  EXPECT_EQ(reg.counter("c").value(), 10u);

  reg.gauge("g").observe(5);
  reg.gauge("g").observe(3);  // max-gauge keeps the larger value
  EXPECT_EQ(reg.gauge("g").value(), 5u);

  const std::uint64_t bounds[] = {10, 100};
  auto& h = reg.histogram("h", bounds);
  h.observe(10);   // first bucket is x <= 10
  h.observe(11);   // second
  h.observe(1000); // overflow
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(Metrics, KindMismatchRaisesConfigError) {
  obs::MetricsRegistry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), Error);
  const std::uint64_t bounds[] = {1};
  EXPECT_THROW(reg.histogram("m", bounds), Error);
  // Same name, same kind, different bounds is also a config error.
  reg.histogram("h", bounds);
  const std::uint64_t other[] = {2};
  EXPECT_THROW(reg.histogram("h", other), Error);
  try {
    reg.gauge("m");
    FAIL() << "expected Error{kConfig}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

TEST(Metrics, SnapshotIsSortedAndFiltersHostMetrics) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.counter("m.host", obs::Stability::kHost).add(3);
  const auto det = reg.snapshot(/*include_host=*/false);
  ASSERT_EQ(det.size(), 2u);
  EXPECT_EQ(det[0].name, "a.first");
  EXPECT_EQ(det[1].name, "z.last");
  const auto all = reg.snapshot(/*include_host=*/true);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].name, "m.host");
  EXPECT_EQ(all[1].stability, obs::Stability::kHost);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.gauge("g").observe(7);
  reg.reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.gauge("g").value(), 0u);
}

// The registry's whole design bet: concurrent updates from any thread
// land exactly, because every update is a single atomic RMW. Run under
// -DDXBSP_SANITIZE=thread this is also the data-race proof.
TEST(Metrics, ConcurrentUpdatesAreExact) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  auto& c = reg.counter("stress.count");
  auto& g = reg.gauge("stress.max");
  const std::uint64_t bounds[] = {4, 64, 1024};
  auto& h = reg.histogram("stress.hist", bounds);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add();
        g.observe(static_cast<std::uint64_t>(t) * kPerThread + i);
        h.observe(i % 2000);
        // Registration from several threads must also be safe.
        reg.counter("stress.shared").add();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.counter("stress.shared").value(), kThreads * kPerThread);
  EXPECT_EQ(g.value(), (kThreads - 1) * kPerThread + kPerThread - 1);
  EXPECT_EQ(h.total(), kThreads * kPerThread);
}

TEST(Metrics, JsonDumpIsValidAndDeterministic) {
  obs::MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  std::ostringstream one, two;
  reg.write_json(one, true);
  reg.write_json(two, true);
  EXPECT_EQ(one.str(), two.str());
  // "a" sorts before "b" regardless of registration order.
  EXPECT_LT(one.str().find("\"a\""), one.str().find("\"b\""));
}

// ----------------------------------------------------------------- trace

TEST(Trace, RingCountsSurviveOverflow) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.record({i, 0, 0, 0, obs::TraceKind::kNack});
  EXPECT_EQ(ring.count(obs::TraceKind::kNack), 10u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto kept = ring.drain();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest-first among the retained (newest) events.
  EXPECT_EQ(kept.front().ts, 6u);
  EXPECT_EQ(kept.back().ts, 9u);
}

TEST(Trace, TracerEmitsTracksInSortedOrder) {
  obs::Tracer tracer(16);
  tracer.track(7).record({0, 5, 1, 0, obs::TraceKind::kSuperstep});
  tracer.track(3).record({0, 9, 2, 0, obs::TraceKind::kSuperstep});
  EXPECT_EQ(tracer.track_ids(), (std::vector<std::uint64_t>{3, 7}));
  EXPECT_EQ(tracer.total_recorded(), 2u);
  EXPECT_EQ(tracer.total_count(obs::TraceKind::kSuperstep), 2u);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Track 3 (pid 3) is written before track 7.
  EXPECT_LT(json.find("\"pid\": 3"), json.find("\"pid\": 7"));
  EXPECT_NE(json.find("\"superstep\""), std::string::npos);
}

// --------------------------------------------------------- reconciliation

// Trace counts must agree exactly with the BulkResult telemetry: the
// tracer watches the same events the counters do, so n, nacks, retries
// and failovers all reconcile on a seeded faulty run.
TEST(Reconcile, FaultyScatterMatchesBulkTelemetry) {
  auto cfg = sim::MachineConfig::cray_j90();
  const auto addrs = workload::uniform_random(1 << 12, 1ULL << 30, 42);

  fault::FaultConfig fc;
  fc.seed = 9;
  fc.drop_rate = 0.02;
  fc.dead_fraction = 0.1;
  fc.validate();
  auto plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());

  obs::Tracer tracer;
  sim::Machine machine(cfg);
  machine.set_tracer(&tracer.track(0));
  machine.inject(plan);
  const auto out = machine.scatter_faulty(addrs);

  const obs::TraceRing& ring = tracer.track(0);
  if constexpr (obs::kTraceCompiledIn) {
    EXPECT_EQ(ring.count(obs::TraceKind::kNack), out.bulk.nacks);
    EXPECT_EQ(ring.count(obs::TraceKind::kRetry), out.bulk.retries);
    EXPECT_EQ(ring.count(obs::TraceKind::kFailover), out.bulk.failovers);
    EXPECT_EQ(ring.count(obs::TraceKind::kSuperstep), 1u);
  }
  // The fault plan is seeded, so the run must actually have exercised
  // the fault paths for this test to mean anything.
  EXPECT_GT(out.bulk.nacks, 0u);
  EXPECT_GT(out.bulk.failovers, 0u);
  const auto events = ring.drain();
  for (const auto& ev : events)
    if (ev.kind == obs::TraceKind::kSuperstep) {
      EXPECT_EQ(ev.dur, out.bulk.cycles);
      EXPECT_EQ(ev.a, out.bulk.n);
    }
}

TEST(Reconcile, HealthyScatterBankBusyMatchesCompleted) {
  auto cfg = sim::MachineConfig::cray_j90();
  const auto addrs = workload::uniform_random(1 << 10, 1ULL << 30, 7);
  obs::Tracer tracer;
  sim::Machine machine(cfg);
  machine.set_tracer(&tracer.track(0));
  const auto res = machine.scatter(addrs);
  const obs::TraceRing& ring = tracer.track(0);
  // Every completed request occupied a bank exactly once (combined
  // accesses would reduce this; uniform-random keys do not combine).
  if constexpr (obs::kTraceCompiledIn) {
    EXPECT_EQ(ring.count(obs::TraceKind::kBankBusy), res.completed);
    EXPECT_EQ(ring.count(obs::TraceKind::kQueueDepth), res.n);
  }
  EXPECT_EQ(res.completed, res.n);
  EXPECT_EQ(ring.count(obs::TraceKind::kNack), 0u);
}

// Publishing into the global registry from Machine::run must reconcile
// with the returned BulkResult too.
TEST(Reconcile, GlobalMetricsMatchBulkResult) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  auto cfg = sim::MachineConfig::cray_j90();
  const auto addrs = workload::uniform_random(1 << 10, 1ULL << 30, 11);
  sim::Machine machine(cfg);
  const auto res = machine.scatter(addrs);
  EXPECT_EQ(reg.counter("sim.requests").value(), res.n);
  EXPECT_EQ(reg.counter("sim.cycles").value(), res.cycles);
  EXPECT_EQ(reg.counter("sim.completed").value(), res.completed);
  EXPECT_EQ(reg.gauge("sim.max_bank_load").value(), res.max_bank_load);
  reg.reset();
}

// ---------------------------------------------------------------- report

TEST(Report, ExcludesHostMetricsAndIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.counter("sim.cycles").add(1234);
  reg.counter("pool.calls", obs::Stability::kHost).add(9);
  obs::RunInfo info;
  info.bench = "Test bench";
  info.description = "report writer test";
  info.machine = "j90";
  info.seed = 21;
  info.flags.emplace_back("n", "1024");
  std::ostringstream one, two;
  obs::write_report_json(one, info, reg, nullptr);
  obs::write_report_json(two, info, reg, nullptr);
  EXPECT_EQ(one.str(), two.str());
  const std::string json = one.str();
  EXPECT_NE(json.find("\"report_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"sim.cycles\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 21"), std::string::npos);
  EXPECT_NE(json.find("\"n\": \"1024\""), std::string::npos);
  EXPECT_EQ(json.find("pool.calls"), std::string::npos);
  // No timeline section without a tracer.
  EXPECT_EQ(json.find("\"timeline\""), std::string::npos);
}

TEST(Report, TimelineSummarizesTracks) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer(8);
  tracer.track(5).record({0, 321, 64, 0, obs::TraceKind::kSuperstep});
  obs::RunInfo info;
  info.bench = "t";
  std::ostringstream os;
  obs::write_report_json(os, info, reg, &tracer);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"track\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"superstep_cycles\": 321"), std::string::npos);
}

// RFC 4180 records of a CSV document (quoted fields may hold commas,
// doubled quotes and line breaks).
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        field += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else {
      field += c;
    }
  }
  return rows;
}

// Every scalar leaf of `v` as {section, dotted path, JSON text}.
void json_leaves(const obs::JsonValue& v, const std::string& section,
                 const std::string& path,
                 std::vector<std::vector<std::string>>& out) {
  const auto child = [&](const std::string& k) {
    return path.empty() ? k : path + "." + k;
  };
  if (v.is_object()) {
    for (const auto& [k, m] : v.members())
      json_leaves(m, section, child(k), out);
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.items().size(); ++i)
      json_leaves(v.items()[i], section, child(std::to_string(i)), out);
  } else if (v.is_string()) {
    out.push_back({section, path, v.as_string()});
  } else if (v.is_number()) {
    out.push_back({section, path, v.raw_number()});
  } else if (v.is_null()) {
    out.push_back({section, path, "null"});
  } else {
    out.push_back({section, path, v.as_bool() ? "true" : "false"});
  }
}

TEST(Report, CsvTwinCarriesSameContent) {
  obs::MetricsRegistry reg;
  reg.counter("sim.cycles").add(77);
  reg.counter("pool.x", obs::Stability::kHost).add(1);
  const std::vector<std::uint64_t> bounds = {1, 10};
  reg.histogram("lat,ency", bounds).observe(5);
  obs::RunInfo info;
  info.bench = "csv bench";
  info.description = "a \"quoted\", two-line\ndescription";
  info.seed = 3;
  info.flags.emplace_back("n", "64");
  std::ostringstream os;
  obs::write_report_csv(os, info, reg, nullptr);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("metrics,sim.cycles,77"), std::string::npos);
  EXPECT_EQ(csv.find("pool.x"), std::string::npos);
  EXPECT_NE(csv.find("run,bench,csv bench"), std::string::npos);

  // One data row per JSON leaf, same values, in document order, with
  // every section the writers know present.
  obs::AttributionAggregate agg;
  obs::BankLoadSketch sketch;
  sketch.observe(3);
  agg.record(obs::CostBreakdown{.issue_gap = 4, .bank_service = 6}, sketch, 2,
             10);
  obs::DriftDetector det(obs::DriftConfig{0.25});
  const auto cfg = sim::MachineConfig::test_machine();
  obs::DriftSample sample;
  sample.cycles = 500;
  sample.n = 100;
  sample.h_proc = 25;
  sample.h_bank = 7;
  sample.mapping = "hashed, seed 7";
  sample.config = &cfg;
  det.observe(sample);
  obs::SelectorLog selector;
  selector.record(obs::SelectorRow{.n = 100, .measured = 500});
  obs::DegradedInfo degraded;
  degraded.poisoned_shards = 1;
  degraded.shards.push_back({"2/4", 2, 0, 3, "killed", "bench --shard=2/4"});
  obs::Tracer tracer(8);
  tracer.track(5).record({0, 321, 64, 0, obs::TraceKind::kSuperstep});

  std::ostringstream json_os, csv_os;
  obs::write_report_json(json_os, info, reg, &tracer, &agg, &det, &selector,
                         &degraded);
  obs::write_report_csv(csv_os, info, reg, &tracer, &agg, &det, &selector,
                        &degraded);
  const auto doc = obs::JsonValue::parse(json_os.str(), "report").value();
  std::vector<std::vector<std::string>> leaves;
  for (const auto& [key, v] : doc.members()) {
    if (v.is_object() || v.is_array()) {
      json_leaves(v, key, "", leaves);
    } else {
      json_leaves(v, "run", key, leaves);
    }
  }
  auto rows = parse_csv(csv_os.str());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front(),
            (std::vector<std::string>{"section", "key", "value"}));
  rows.erase(rows.begin());
  EXPECT_EQ(rows, leaves);
  std::vector<std::string> sections;
  for (const auto& row : rows)
    if (sections.empty() || sections.back() != row[0])
      sections.push_back(row[0]);
  EXPECT_EQ(sections,
            (std::vector<std::string>{"run", "flags", "metrics",
                                      "attribution", "drift", "selector",
                                      "degraded", "timeline"}));
}

TEST(CsvEscape, PassesPlainFieldsThrough) {
  EXPECT_EQ(util::csv_escape("sim.cycles"), "sim.cycles");
  EXPECT_EQ(util::csv_escape(""), "");
}

TEST(CsvEscape, QuotesCommasQuotesAndNewlines) {
  EXPECT_EQ(util::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(util::csv_escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(util::csv_escape("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvEscape, ReportCsvRowsSurviveHostileNames) {
  // A metric or flag name containing a comma must not shear the
  // section,key,value row: the field comes back quoted, and every line
  // still splits into exactly three CSV fields.
  obs::MetricsRegistry reg;
  reg.counter("evil,metric \"x\"").add(5);
  obs::RunInfo info;
  info.bench = "b";
  info.flags.emplace_back("with,comma", "v,1");
  std::ostringstream os;
  obs::write_report_csv(os, info, reg, nullptr);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("metrics,\"evil,metric \"\"x\"\"\",5"),
            std::string::npos);
  EXPECT_NE(csv.find("flags,\"with,comma\",\"v,1\""), std::string::npos);

  // Round-trip: parse each line as RFC 4180 and count fields.
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    int fields = 1;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"') {
        if (quoted && i + 1 < line.size() && line[i + 1] == '"') {
          ++i;  // escaped quote
        } else {
          quoted = !quoted;
        }
      } else if (line[i] == ',' && !quoted) {
        ++fields;
      }
    }
    EXPECT_EQ(fields, 3) << "sheared row: " << line;
    EXPECT_FALSE(quoted) << "unbalanced quotes: " << line;
  }
}

TEST(CsvEscape, MetricsCsvEscapesNames) {
  // A hostile metric name reaches CSV only through the run report's CSV
  // copy, which quotes it.
  obs::MetricsRegistry reg;
  reg.gauge("g,1").observe(7);
  std::ostringstream os;
  obs::write_report_csv(os, obs::RunInfo{}, reg, nullptr);
  EXPECT_NE(os.str().find("metrics,\"g,1\",7\n"), std::string::npos)
      << os.str();
}

// ---------------------------------------------------------- JSON reader

TEST(JsonRead, ParsesScalarsContainersAndEscapes) {
  const auto doc = obs::JsonValue::parse(
      R"({"a": 1, "b": [true, null, -2.5e1], "s": "x\n\"y\" é"})",
      "test").value();
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->as_u64(), 1u);
  const obs::JsonValue* b = doc.find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_DOUBLE_EQ(b->items()[2].as_double(), -25.0);
  EXPECT_EQ(doc.find("s")->as_string(), "x\n\"y\" \xc3\xa9");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonRead, BigIntegersSurviveExactly) {
  const auto doc =
      obs::JsonValue::parse(R"({"v": 18446744073709551615})", "t").value();
  EXPECT_EQ(doc.find("v")->as_u64(), 18446744073709551615ULL);
  EXPECT_EQ(doc.find("v")->raw_number(), "18446744073709551615");
}

TEST(JsonRead, MalformedInputIsStructuredParseError) {
  for (const char* bad : {"{", "[1,", "{\"a\" 1}", "tru", "\"unterminated",
                          "{\"a\": 1} trailing", "01x"}) {
    const auto res = obs::JsonValue::parse(bad, "bad.json");
    ASSERT_FALSE(res.ok()) << bad;
    EXPECT_EQ(res.error().code(), ErrorCode::kParse) << bad;
    EXPECT_NE(std::string(res.error().what()).find("bad.json"),
              std::string::npos);
  }
}

TEST(JsonRead, RoundTripsOwnReportWriter) {
  // The reader must load what our writer emits — the contract the svc
  // payloads and fleet stitch manifests rely on.
  obs::MetricsRegistry reg;
  reg.counter("sim.cycles").add(321);
  const std::vector<std::uint64_t> bounds = {1, 10, 100};
  reg.histogram("lat", bounds).observe(5);
  obs::RunInfo info;
  info.bench = "round trip";
  info.seed = 9;
  std::ostringstream os;
  obs::write_report_json(os, info, reg, nullptr);
  const auto doc = obs::JsonValue::parse(os.str(), "report").value();
  EXPECT_EQ(doc.find("report_version")->as_u64(), obs::kReportVersion);
  const obs::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("sim.cycles")->as_u64(), 321u);
  EXPECT_EQ(metrics->find("lat")->find("total")->as_u64(), 1u);
}

// ------------------------------------------- attribution/drift sections

TEST(Report, AttributionAndDriftSections) {
  obs::MetricsRegistry reg;
  obs::AttributionAggregate agg;
  obs::CostBreakdown terms;
  terms.issue_gap = 40;
  terms.bank_service = 60;
  obs::BankLoadSketch sketch;
  sketch.observe(3);
  agg.record(terms, sketch, 2, 100);

  obs::DriftDetector det(obs::DriftConfig{0.25});
  const auto cfg = sim::MachineConfig::test_machine();
  obs::DriftSample sample;
  sample.track = 4;
  sample.cycles = 5000;
  sample.n = 1000;
  sample.h_proc = 250;
  sample.h_bank = 70;
  sample.location_contention = 1;
  sample.mapping = "interleaved";
  sample.config = &cfg;
  det.observe(sample);

  obs::RunInfo info;
  info.bench = "sections";
  std::ostringstream os;
  obs::write_report_json(os, info, reg, nullptr, &agg, &det);
  const auto doc = obs::JsonValue::parse(os.str(), "report").value();

  const obs::JsonValue* attr = doc.find("attribution");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->find("schema_version")->as_u64(),
            obs::kAttributionSchemaVersion);
  EXPECT_EQ(attr->find("supersteps")->as_u64(), 1u);
  EXPECT_EQ(attr->find("cycles")->as_u64(), 100u);
  EXPECT_EQ(attr->find("terms")->find("issue_gap")->as_u64(), 40u);
  EXPECT_EQ(attr->find("bank_load")->find("served")->as_u64(), 3u);

  const obs::JsonValue* drift = doc.find("drift");
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->find("schema_version")->as_u64(),
            obs::kDriftSchemaVersion);
  EXPECT_EQ(drift->find("supersteps")->as_u64(), 1u);
  ASSERT_NE(drift->find("worst"), nullptr);
  EXPECT_EQ(drift->find("worst")->find("track")->as_u64(), 4u);

  // Without aggregates the sections are absent, not empty.
  std::ostringstream bare;
  obs::write_report_json(bare, info, reg, nullptr);
  EXPECT_EQ(bare.str().find("\"attribution\""), std::string::npos);
  EXPECT_EQ(bare.str().find("\"drift\""), std::string::npos);
}

TEST(Report, WriteFileRaisesIoOnBadPath) {
  try {
    obs::write_file("/nonexistent-dir-xyz/file.json",
                    [](std::ostream&) {});
    FAIL() << "expected Error{kIo}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

}  // namespace
}  // namespace dxbsp
