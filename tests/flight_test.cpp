// Fleet-observability unit tests (docs/observability.md §fleet): the
// DXFDR1 crash-safe flight recorder (roundtrip, ring wraparound, torn
// slots, header refusal), the wall-clock EventLog, cross-process trace
// stitching (known clock offsets must order correctly, worker events
// must never precede their lease grant, dead attempts fall back to
// their flight ring) and the post_mortem.json writer.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/stitch.hpp"
#include "resilience/error.hpp"
#include "test_tmp.hpp"

namespace {

using namespace dxbsp;
using obs::FlightKind;
using obs::FlightPhase;
using obs::JsonValue;

std::string tmp_path(const std::string& name) {
  return testing_tmp::path("dxbsp_flight_" + name);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

ErrorCode code_of(const Expected<obs::FlightTail>& r) {
  EXPECT_FALSE(r.ok());
  return r.error().code();
}

// ------------------------------------------------------- flight recorder

TEST(Flight, RoundTripPreservesRecords) {
  const std::string path = tmp_path("roundtrip.flight");
  const auto epoch = std::chrono::steady_clock::now();
  {
    obs::FlightRecorder rec(path, epoch, 64 + 8 * 64);  // 8 slots
    EXPECT_EQ(rec.slots(), 8u);
    rec.append(FlightKind::kPhase,
               static_cast<std::uint8_t>(FlightPhase::kLease), 2, 0, 16, 0);
    rec.append(FlightKind::kPhase,
               static_cast<std::uint8_t>(FlightPhase::kPoint), 1, 3, 16, 0);
    rec.append(FlightKind::kNote, 7, 11, 22, 33, 44);
    EXPECT_EQ(rec.appended(), 3u);
  }
  const obs::FlightTail tail = obs::flight_read(path).value();
  EXPECT_EQ(tail.slots, 8u);
  EXPECT_EQ(tail.valid, 3u);
  EXPECT_EQ(tail.torn, 0u);
  ASSERT_EQ(tail.records.size(), 3u);
  // Oldest first, seq monotone from 0.
  EXPECT_EQ(tail.records[0].seq, 0u);
  EXPECT_EQ(tail.records[0].kind, FlightKind::kPhase);
  EXPECT_EQ(tail.records[0].sub,
            static_cast<std::uint8_t>(FlightPhase::kLease));
  EXPECT_EQ(tail.records[1].seq, 1u);
  EXPECT_EQ(tail.records[1].b, 3u);
  EXPECT_EQ(tail.records[2].kind, FlightKind::kNote);
  EXPECT_EQ(tail.records[2].d, 44u);
  EXPECT_LE(tail.records[0].t_us, tail.records[2].t_us);
}

TEST(Flight, RingWrapsKeepingNewestRecords) {
  const std::string path = tmp_path("wrap.flight");
  {
    obs::FlightRecorder rec(path, std::chrono::steady_clock::now(),
                            64 + 4 * 64);  // 4 slots
    for (std::uint64_t i = 0; i < 11; ++i)
      rec.append(FlightKind::kNote, 0, /*a=*/i);
  }
  const obs::FlightTail tail = obs::flight_read(path).value();
  EXPECT_EQ(tail.valid, 4u);
  ASSERT_EQ(tail.records.size(), 4u);
  // The surviving records are exactly the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tail.records[i].seq, 7 + i);
    EXPECT_EQ(tail.records[i].a, 7 + i);
  }
}

TEST(Flight, TornSlotIsCountedNotFatal) {
  const std::string path = tmp_path("torn.flight");
  {
    obs::FlightRecorder rec(path, std::chrono::steady_clock::now(),
                            64 + 8 * 64);
    for (std::uint64_t i = 0; i < 3; ++i)
      rec.append(FlightKind::kNote, 0, i);
  }
  // Flip one payload byte in the middle record (slot 1): its CRC fails.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(64 + 1 * 64 + 30);
    char byte = 0;
    f.get(byte);
    f.seekp(64 + 1 * 64 + 30);
    f.put(static_cast<char>(byte ^ 0x5a));
    ASSERT_TRUE(f.good());
  }
  const obs::FlightTail tail = obs::flight_read(path).value();
  EXPECT_EQ(tail.valid, 2u);
  EXPECT_EQ(tail.torn, 1u);
  ASSERT_EQ(tail.records.size(), 2u);
  EXPECT_EQ(tail.records[0].seq, 0u);
  EXPECT_EQ(tail.records[1].seq, 2u);
}

TEST(Flight, ReaderRejectsGarbageStructurally) {
  // Missing file: kIo (pollable), not kCorruptInput.
  EXPECT_EQ(code_of(obs::flight_read(tmp_path("nope.flight"))),
            ErrorCode::kIo);

  // Bad magic and bad version are corrupt input. Every truncation and
  // bit flip is covered by the framed-file corruption harness
  // (framed_file_test.cpp).
  const std::string path = tmp_path("hdr.flight");
  {
    obs::FlightRecorder rec(path, std::chrono::steady_clock::now(),
                            64 + 2 * 64);
  }
  const std::string whole = slurp(path);
  ASSERT_EQ(whole.size(), 64u + 2 * 64u);
  std::string bad = whole;
  bad[0] = 'X';
  write_raw(path + ".magic", bad);
  EXPECT_EQ(code_of(obs::flight_read(path + ".magic")),
            ErrorCode::kCorruptInput);
  bad = whole;
  bad[8] = 99;
  write_raw(path + ".version", bad);
  EXPECT_EQ(code_of(obs::flight_read(path + ".version")),
            ErrorCode::kCorruptInput);
}

TEST(Flight, DescribeNamesPhasesAndKinds) {
  obs::FlightRecord r;
  r.kind = FlightKind::kPhase;
  r.sub = static_cast<std::uint8_t>(FlightPhase::kPoint);
  r.a = 2;
  r.b = 5;
  r.c = 16;
  EXPECT_EQ(obs::flight_record_name(r), "point");
  EXPECT_NE(obs::flight_describe(r).find("completed=5/16"),
            std::string::npos);
  r.sub = static_cast<std::uint8_t>(FlightPhase::kChaos);
  EXPECT_EQ(obs::flight_record_name(r), "chaos");
  r.kind = FlightKind::kNote;
  EXPECT_EQ(obs::flight_kind_name(r.kind), std::string("note"));
}

// ------------------------------------------------------------- event log

TEST(EventLog, WritesValidChromeJson) {
  const auto epoch = std::chrono::steady_clock::now();
  obs::EventLog log("worker shard 0", epoch);
  log.span("point", 100, 50, 1, {{"key", "3"}});
  log.instant("lease", 10, 0);
  log.counter("completed", 160, 0, 7);
  EXPECT_EQ(log.size(), 3u);

  std::ostringstream os;
  log.write_chrome_json(os);
  const JsonValue doc = JsonValue::parse(os.str(), "elog").value();
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata first, then the three records in append order.
  ASSERT_EQ(events->items().size(), 4u);
  EXPECT_EQ(events->items()[0].find("ph")->as_string(), "M");
  EXPECT_EQ(events->items()[0].find("args")->find("name")->as_string(),
            "worker shard 0");
  EXPECT_EQ(events->items()[1].find("ph")->as_string(), "X");
  EXPECT_EQ(events->items()[1].find("dur")->as_u64(), 50u);
  EXPECT_EQ(events->items()[3].find("ph")->as_string(), "C");
}

// ---------------------------------------------------------------- stitch

struct StitchedEvent {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t pid = 0;
  std::string ph;
};

std::vector<StitchedEvent> parse_stitched(const std::string& json) {
  const JsonValue doc = JsonValue::parse(json, "stitched").value();
  const JsonValue* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::vector<StitchedEvent> out;
  for (const JsonValue& e : events->items()) {
    StitchedEvent ev;
    ev.ph = e.find("ph")->as_string();
    if (ev.ph == "M") continue;
    ev.name = e.find("name")->as_string();
    ev.ts = e.find("ts")->as_u64();
    ev.pid = e.find("pid")->as_u64();
    out.push_back(std::move(ev));
  }
  return out;
}

TEST(Stitch, KnownOffsetsOrderTheMergedTimeline) {
  const auto epoch = std::chrono::steady_clock::now();
  const std::string coord_path = tmp_path("st.coord.json");
  const std::string w_path = tmp_path("st.worker.json");

  obs::EventLog coord("coordinator", epoch);
  coord.instant("grant 0", 1000, 1);
  coord.instant("merge", 9000, 0);
  obs::write_file(coord_path, [&](std::ostream& os) {
    coord.write_chrome_json(os);
  });

  obs::EventLog worker("worker", epoch);
  worker.span("point", 0, 400, 1);   // worker clock 0 = its own epoch
  worker.span("point", 500, 400, 1);
  obs::write_file(w_path, [&](std::ostream& os) {
    worker.write_chrome_json(os);
  });

  const std::string manifest = tmp_path("st.manifest.json");
  // Relative trace paths resolve against the manifest's directory.
  write_raw(manifest,
            "{\"stitch_version\": 1, \"processes\": [\n"
            " {\"label\": \"coordinator\", \"trace\": \"dxbsp_flight_"
            "st.coord.json\", \"offset_us\": 0},\n"
            " {\"label\": \"shard 0/2 attempt 0\", \"trace\": "
            "\"dxbsp_flight_st.worker.json\", \"offset_us\": 1500}]}");

  std::ostringstream os;
  const obs::StitchSummary sum = obs::stitch_traces(manifest, os);
  EXPECT_EQ(sum.processes, 2u);
  EXPECT_EQ(sum.events, 4u);
  EXPECT_EQ(sum.skipped_traces, 0u);

  const auto events = parse_stitched(os.str());
  ASSERT_EQ(events.size(), 4u);
  // Sorted by mapped timestamp: grant (1000), worker points (1500,
  // 2000), merge (9000); worker events carry pid 1 (manifest index).
  EXPECT_EQ(events[0].name, "grant 0");
  EXPECT_EQ(events[1].name, "point");
  EXPECT_EQ(events[1].ts, 1500u);
  EXPECT_EQ(events[1].pid, 1u);
  EXPECT_EQ(events[2].ts, 2000u);
  EXPECT_EQ(events[3].name, "merge");

  // The ordering invariant the offset estimator guarantees: no worker
  // event precedes the grant that spawned it.
  for (const auto& e : events) {
    if (e.pid == 1) EXPECT_GE(e.ts, 1000u);
  }
}

TEST(Stitch, MissingTraceFallsBackToFlightRing) {
  const std::string ring = tmp_path("fb.flight");
  {
    obs::FlightRecorder rec(ring, std::chrono::steady_clock::now(),
                            64 + 8 * 64);
    rec.append(FlightKind::kPhase,
               static_cast<std::uint8_t>(FlightPhase::kLease), 0, 0, 16, 0);
    rec.append(FlightKind::kPhase,
               static_cast<std::uint8_t>(FlightPhase::kPoint), 1, 1, 16, 0);
  }
  const std::string manifest = tmp_path("fb.manifest.json");
  write_raw(manifest,
            "{\"stitch_version\": 1, \"processes\": [\n"
            " {\"label\": \"shard 0/1 attempt 0\", \"trace\": "
            "\"fb.does-not-exist.json\", \"offset_us\": 200, "
            "\"flight\": \"dxbsp_flight_fb.flight\"}]}");

  std::ostringstream os;
  const obs::StitchSummary sum = obs::stitch_traces(manifest, os);
  EXPECT_EQ(sum.processes, 1u);
  EXPECT_EQ(sum.skipped_traces, 1u);
  EXPECT_EQ(sum.flight_events, 2u);

  const auto events = parse_stitched(os.str());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, "i");
  EXPECT_NE(events[0].name.find("lease"), std::string::npos);
  EXPECT_NE(events[1].name.find("point"), std::string::npos);
  for (const auto& e : events) EXPECT_GE(e.ts, 200u);
}

TEST(Stitch, ManifestErrorsAreStructured) {
  std::ostringstream os;
  try {
    obs::stitch_traces(tmp_path("absent-manifest.json"), os);
    FAIL() << "missing manifest stitched";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }

  const std::string bad = tmp_path("bad.manifest.json");
  write_raw(bad, "{\"stitch_version\": 1}");  // no processes
  try {
    obs::stitch_traces(bad, os);
    FAIL() << "malformed manifest stitched";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptInput);
  }

  write_raw(bad, "not json at all");
  try {
    obs::stitch_traces(bad, os);
    FAIL() << "non-JSON manifest stitched";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptInput);
  }
}

// -------------------------------------------------------- report v3

TEST(ReportV3, FleetAndPostMortemSectionsRender) {
  // Both host-time fleet aggregates left the run report for the fleet
  // directory: the counters for fleet.status, the flight tails for
  // post_mortem.json, rendered by PostMortemInfo's own writer.
  obs::PostMortemInfo pm;
  obs::PostMortemInfo::Harvest h;
  h.shard = "1/4";
  h.attempt = 0;
  h.why = "killed by signal 9";
  h.last_phase = "point";
  h.last_point = 3;
  h.records = 12;
  h.torn = 1;
  h.events.push_back({"trace", "arrive", 10, 900, 120, 4, 0, 0});
  h.events.push_back({"phase", "point", 11, 950, 3, 3, 16, 0});
  pm.harvests.push_back(std::move(h));

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  obs::write_json(w, pm);
  w.end_object();
  const JsonValue post = JsonValue::parse(os.str(), "post_mortem").value();
  EXPECT_EQ(post.find("schema_version")->as_u64(),
            obs::kPostMortemSchemaVersion);
  EXPECT_EQ(post.find("harvests")->as_u64(), 1u);
  const JsonValue* deaths = post.find("deaths");
  ASSERT_NE(deaths, nullptr);
  ASSERT_EQ(deaths->items().size(), 1u);
  const JsonValue& death = deaths->items()[0];
  EXPECT_EQ(death.find("shard")->as_string(), "1/4");
  EXPECT_EQ(death.find("last_phase")->as_string(), "point");
  EXPECT_EQ(death.find("torn")->as_u64(), 1u);
  ASSERT_EQ(death.find("events")->items().size(), 2u);
  EXPECT_EQ(death.find("events")->items()[0].find("kind")->as_string(),
            "trace");

  // Neither report writer emits a fleet or post_mortem section.
  obs::RunInfo info;
  info.bench = "flight test";
  info.seed = 1;
  obs::MetricsRegistry metrics;
  metrics.counter("sim.requests").add(5);
  metrics.counter("svc.leases_granted", obs::Stability::kHost).add(3);
  std::ostringstream json, csv;
  obs::write_report_json(json, info, metrics, nullptr);
  obs::write_report_csv(csv, info, metrics, nullptr);
  ASSERT_TRUE(JsonValue::parse(json.str(), "report").ok());
  for (const std::string& out : {json.str(), csv.str()}) {
    EXPECT_EQ(out.find("fleet"), std::string::npos) << out;
    EXPECT_EQ(out.find("post_mortem"), std::string::npos) << out;
    EXPECT_EQ(out.find("svc.leases_granted"), std::string::npos) << out;
  }
}

}  // namespace
