// Fleet-observability unit tests (docs/observability.md §fleet): the
// DXFDR1 crash-safe flight recorder (roundtrip, ring wraparound, torn
// slots, header refusal), the wall-clock EventLog, the fleet timeline's
// attempt lanes drawn from flight rings (known clock offsets order
// correctly, worker events never precede their lease grant, a dead
// attempt's lane comes from its ring, a wrapped ring says so, an
// unreadable ring leaves its lane empty) and the post_mortem.json
// writer.

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
#include "obs/selector.hpp"
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

// -------------------------------------------------------- fleet timeline

struct TimelineEvent {
  std::string name;
  std::string ph;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint64_t tid = 0;
  bool worker = false;  ///< drawn from a flight record (args carry its seq)
};

struct Timeline {
  std::vector<std::pair<std::uint64_t, std::string>> lanes;  // tid, name
  std::vector<TimelineEvent> events;  // metadata aside, in file order
};

/// Writes `log` and parses it back: the file must be valid Chrome JSON.
Timeline render(const obs::EventLog& log) {
  std::ostringstream os;
  log.write_chrome_json(os);
  Timeline t;
  const auto doc = JsonValue::parse(os.str(), "fleet.trace.json");
  EXPECT_TRUE(doc.ok());
  if (!doc.ok()) return t;
  for (const JsonValue& e : doc.value().find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    const std::uint64_t tid = e.find("tid")->as_u64();
    const JsonValue* args = e.find("args");
    if (ph == "M") {
      if (e.find("name")->as_string() == "thread_name")
        t.lanes.emplace_back(tid, args->find("name")->as_string());
      continue;
    }
    TimelineEvent ev;
    ev.name = e.find("name")->as_string();
    ev.ph = ph;
    ev.ts = e.find("ts")->as_u64();
    ev.tid = tid;
    if (const JsonValue* dur = e.find("dur")) ev.dur = dur->as_u64();
    ev.worker = args != nullptr && args->find("seq") != nullptr;
    t.events.push_back(std::move(ev));
  }
  return t;
}

std::vector<TimelineEvent> worker_events(const Timeline& t,
                                         std::uint64_t tid) {
  std::vector<TimelineEvent> out;
  for (const TimelineEvent& e : t.events)
    if (e.tid == tid && e.worker) out.push_back(e);
  return out;
}

void append_phase(obs::FlightRecorder& rec, FlightPhase phase,
                  std::uint64_t a = 0) {
  rec.append(FlightKind::kPhase, static_cast<std::uint8_t>(phase), a, a, 16,
             0);
}

TEST(Stitch, KnownOffsetsOrderTheMergedTimeline) {
  // The coordinator's grant and a live attempt's ring, shifted by the
  // heartbeat offset, on one lane: every record lands at offset + t_us,
  // in ring order, none before the grant; each point is a span from the
  // previous phase record.
  const std::string ring = tmp_path("live.flight");
  {
    obs::FlightRecorder rec(ring, std::chrono::steady_clock::now(),
                            64 + 16 * 64);
    append_phase(rec, FlightPhase::kLease);
    for (std::uint64_t p = 1; p <= 2; ++p) {
      rec.append(FlightKind::kSelector,
                 static_cast<std::uint8_t>(obs::EngineChoice::kSoA), p, 4096,
                 0, 900 + p);
      append_phase(rec, FlightPhase::kPoint, p);
    }
    append_phase(rec, FlightPhase::kResult, 2);
  }
  const auto tail = obs::flight_read(ring);
  ASSERT_TRUE(tail.ok());
  const std::vector<obs::FlightRecord>& recs = tail.value().records;
  ASSERT_EQ(recs.size(), 6u);

  constexpr std::uint64_t kGrant = 1000;
  constexpr std::uint64_t kOffset = 1500;  // the worker's epoch, mapped
  obs::EventLog log("sweep fleet");
  log.name_lane(1, "shard 0/2 attempt 0");
  log.instant("grant", kGrant, 1);
  obs::append_flight_lane(log, 1, tail, kOffset);
  log.instant("merge", kOffset + recs.back().t_us + 10, 0);

  const Timeline t = render(log);
  ASSERT_EQ(t.lanes.size(), 1u);
  EXPECT_EQ(t.lanes[0].second, "shard 0/2 attempt 0");
  const auto events = worker_events(t, 1);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].name, "lease");
  EXPECT_EQ(events[1].name, "selector soa");
  EXPECT_EQ(events[2].name, "point");
  EXPECT_EQ(events[2].ph, "X");
  EXPECT_EQ(events[5].name, "result");
  // Point spans run from the previous phase record to their own.
  EXPECT_EQ(events[2].ts, kOffset + recs[0].t_us);
  EXPECT_EQ(events[2].ts + events[2].dur, kOffset + recs[2].t_us);
  EXPECT_EQ(events[4].ts, kOffset + recs[2].t_us);
  EXPECT_EQ(events[4].ts + events[4].dur, kOffset + recs[4].t_us);
  for (const std::size_t i : {0, 1, 3, 5})
    EXPECT_EQ(events[i].ts, kOffset + recs[i].t_us) << events[i].name;
  // The ordering invariant the offset estimator guarantees: no worker
  // event precedes the grant that spawned it.
  for (const TimelineEvent& e : events) EXPECT_GE(e.ts, kGrant) << e.name;
}

TEST(Stitch, MissingTraceFallsBackToFlightRing) {
  // A dead attempt's lane comes from its ring like a live one's: a
  // worker killed inside its second point leaves lease, two points and
  // the chaos marker, and no result — the lane ends at its last point.
  const std::string ring = tmp_path("dead.flight");
  {
    obs::FlightRecorder rec(ring, std::chrono::steady_clock::now(),
                            64 + 8 * 64);
    append_phase(rec, FlightPhase::kLease);
    append_phase(rec, FlightPhase::kPoint, 1);
    append_phase(rec, FlightPhase::kPoint, 2);
    rec.append(FlightKind::kPhase,
               static_cast<std::uint8_t>(FlightPhase::kChaos), 1, 2);
  }
  obs::EventLog log("sweep fleet");
  obs::append_flight_lane(log, 3, obs::flight_read(ring), 200);
  const Timeline t = render(log);
  const auto events = worker_events(t, 3);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "lease");
  EXPECT_EQ(events[1].name, "point");
  EXPECT_EQ(events[2].name, "point");
  EXPECT_EQ(events[3].name, "chaos");
  for (const TimelineEvent& e : events) {
    EXPECT_GE(e.ts, 200u);
    EXPECT_NE(e.name, "result");
  }

  // A ring that wrapped lost its oldest records and says so once, at
  // its oldest surviving record; a point whose previous phase record
  // was overwritten spans from that record.
  const std::string wrapped = tmp_path("wrapped.flight");
  {
    obs::FlightRecorder rec(wrapped, std::chrono::steady_clock::now(),
                            64 + 4 * 64);  // 4 slots, 6 records
    append_phase(rec, FlightPhase::kLease);
    for (std::uint64_t p = 1; p <= 5; ++p)
      append_phase(rec, FlightPhase::kPoint, p);
  }
  const auto tail = obs::flight_read(wrapped);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.value().records.front().seq, 2u);
  obs::EventLog wlog("sweep fleet");
  obs::append_flight_lane(wlog, 1, tail, 0);
  const Timeline wt = render(wlog);
  ASSERT_EQ(wt.events.size(), 5u);
  EXPECT_EQ(wt.events[0].name, "ring wrapped");
  EXPECT_EQ(wt.events[0].ts, tail.value().records.front().t_us);
  std::size_t points = 0;
  for (const TimelineEvent& e : wt.events) points += e.name == "point";
  EXPECT_EQ(points, 4u);
  EXPECT_EQ(wt.events[1].ts, wt.events[0].ts);
  EXPECT_EQ(wt.events[1].dur, 0u);

  // An unwrapped ring draws no wrap instant.
  for (const TimelineEvent& e : t.events) EXPECT_NE(e.name, "ring wrapped");
}

TEST(Stitch, ManifestErrorsAreStructured) {
  // An unreadable ring — missing (kIo) or garbage (kCorruptInput) —
  // leaves its lane empty of worker events and the timeline valid; the
  // coordinator's own events on that lane stay.
  const std::string garbage = tmp_path("garbage.flight");
  write_raw(garbage, "not a flight ring");
  const auto missing = obs::flight_read(tmp_path("absent.flight"));
  const auto corrupt = obs::flight_read(garbage);
  EXPECT_EQ(code_of(missing), ErrorCode::kIo);
  EXPECT_EQ(code_of(corrupt), ErrorCode::kCorruptInput);

  obs::EventLog log("sweep fleet");
  log.name_lane(1, "shard 0/2 attempt 0");
  log.name_lane(2, "shard 1/2 attempt 0");
  log.instant("grant", 10, 1);
  log.instant("grant", 20, 2);
  obs::append_flight_lane(log, 1, missing, 100);
  obs::append_flight_lane(log, 2, corrupt, 100);
  const Timeline t = render(log);
  EXPECT_EQ(t.lanes.size(), 2u);
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_TRUE(worker_events(t, 1).empty());
  EXPECT_TRUE(worker_events(t, 2).empty());
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
  h.events.push_back({"selector", "soa", 10, 900, 2, 4096, 0, 1300});
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
            "selector");

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
