#include "svc/payload.hpp"

#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace dxbsp::svc {

using obs::JsonDecoder;
using obs::JsonValue;
using obs::JsonWriter;

// One writer and one reader of each message's members. They live in
// namespace svc (internal linkage) so that obs::write_object and
// JsonDecoder::read find them the way they find the obs aggregates'
// write_json/read_json, which the aggregates message embeds in the run
// report's shapes.

static void write_json(JsonWriter& w, const LeaseMsg& m) {
  w.member("shard", m.shard);
  w.member("attempt", m.attempt);
  w.member("resume_points", m.resume_points);
  w.member("hb_interval_seconds", m.hb_interval_seconds);
  w.member("chaos", m.chaos);
}

static void read_json(JsonDecoder& d, LeaseMsg& m) {
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.resume_points = d.u64("resume_points");
  m.hb_interval_seconds = d.dbl("hb_interval_seconds");
  m.chaos = d.str("chaos");
}

static void write_json(JsonWriter& w, const HeartbeatMsg& m) {
  w.member("shard", m.shard);
  w.member("attempt", m.attempt);
  w.member("beat", m.beat);
  w.member("completed", m.completed);
  w.member("total", m.total);
  w.member("mono_us", m.mono_us);
  w.member("events", m.events);
}

static void read_json(JsonDecoder& d, HeartbeatMsg& m) {
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.beat = d.u64("beat");
  m.completed = d.u64("completed");
  m.total = d.u64("total");
  m.mono_us = d.u64("mono_us");
  m.events = d.u64("events");
}

static void write_json(JsonWriter& w, const FleetStatusMsg::Shard& s) {
  w.member("shard", s.shard);
  w.member("phase", s.phase);
  w.member("attempt", s.attempt);
  w.member("completed", s.completed);
  w.member("total", s.total);
  w.member("events", s.events);
  w.member("updated_us", s.updated_us);
  w.member("resumed", s.resumed);
  w.member("beat_us", s.beat_us);
}

static void read_json(JsonDecoder& d, FleetStatusMsg::Shard& s) {
  s.shard = d.str("shard");
  s.phase = d.str("phase");
  s.attempt = d.u64("attempt");
  s.completed = d.u64("completed");
  s.total = d.u64("total");
  s.events = d.u64("events");
  s.updated_us = d.u64("updated_us");
  s.resumed = d.u64("resumed");
  s.beat_us = d.u64("beat_us");
}

static void write_json(JsonWriter& w, const FleetStatusMsg& m) {
  w.member("mono_us", m.mono_us);
  w.member("ended", m.ended);
  w.member("shards", m.shards);
  w.member("completed_shards", m.completed_shards);
  w.member("leases_granted", m.leases_granted);
  w.member("retries", m.retries);
  w.member("worker_deaths", m.worker_deaths);
  w.member("stalls", m.stalls);
  w.member("revocations", m.revocations);
  w.member("strikes", m.strikes);
  w.member("points_total", m.points_total);
  w.member("points_completed", m.points_completed);
  w.key("rows").begin_array();
  for (const FleetStatusMsg::Shard& s : m.rows) {
    w.begin_object();
    write_json(w, s);
    w.end_object();
  }
  w.end_array();
}

static void read_json(JsonDecoder& d, FleetStatusMsg& m) {
  m.mono_us = d.u64("mono_us");
  m.ended = d.str("ended");
  m.shards = d.u64("shards");
  m.completed_shards = d.u64("completed_shards");
  m.leases_granted = d.u64("leases_granted");
  m.retries = d.u64("retries");
  m.worker_deaths = d.u64("worker_deaths");
  m.stalls = d.u64("stalls");
  m.revocations = d.u64("revocations");
  m.strikes = d.u64("strikes");
  m.points_total = d.u64("points_total");
  m.points_completed = d.u64("points_completed");
  if (const JsonValue* rows = d.array("rows")) {
    m.rows.resize(rows->items().size());
    for (std::size_t i = 0; i < m.rows.size(); ++i)
      d.read_at(rows->items()[i], "rows." + std::to_string(i), m.rows[i]);
  }
}

static void write_json(JsonWriter& w, const AggregatesMsg& m) {
  w.member("shard", m.shard);
  w.member("attempt", m.attempt);
  w.member("status", m.status);
  w.member("cause", m.cause);
  w.member("total", m.total);
  w.member("covered", m.covered);
  w.member("elapsed_seconds", m.elapsed_seconds);
  obs::write_object(w, "info", m.info);
  obs::write_object(w, "metrics", m.metrics);
  obs::write_object(w, "attribution", m.attribution);
  if (m.has_drift) {
    obs::write_object(w, "drift", m.drift);
  } else {
    w.key("drift").null_value();
  }
  obs::write_object(w, "selector", m.selector);
}

static void read_json(JsonDecoder& d, AggregatesMsg& m) {
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.status = d.str("status");
  m.cause = d.str("cause");
  m.total = d.u64("total");
  m.covered = d.u64("covered");
  m.elapsed_seconds = d.dbl("elapsed_seconds");
  d.read("info", m.info);
  d.read("metrics", m.metrics);
  d.read("attribution", m.attribution);
  m.has_drift = d.read_opt("drift", m.drift);
  d.read("selector", m.selector);
}

namespace {

template <typename Msg>
std::string encode(const Msg& m) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  write_json(w, m);
  w.end_object();
  return std::move(os).str();
}

template <typename Msg>
Expected<Msg> decode(const JsonValue& v, const char* origin) {
  Msg m;
  JsonDecoder d(v, origin);
  read_json(d, m);
  if (!d.ok()) return d.error();
  return m;
}

}  // namespace

AttemptFiles attempt_files(const std::string& dir, std::uint64_t shard,
                           std::uint64_t attempt) {
  const std::string stem = dir + "/shard-" + std::to_string(shard);
  const std::string astem = stem + ".attempt-" + std::to_string(attempt);
  return {astem + ".lease", astem + ".hb",     astem + ".agg",
          stem + ".snap",   astem + ".flight", astem + ".log"};
}

std::string encode_lease(const LeaseMsg& m) { return encode(m); }
std::string encode_heartbeat(const HeartbeatMsg& m) { return encode(m); }
std::string encode_aggregates(const AggregatesMsg& m) { return encode(m); }
std::string encode_fleet_status(const FleetStatusMsg& m) { return encode(m); }

Expected<LeaseMsg> decode_lease(const JsonValue& v) {
  return decode<LeaseMsg>(v, kMsgLease);
}
Expected<HeartbeatMsg> decode_heartbeat(const JsonValue& v) {
  return decode<HeartbeatMsg>(v, kMsgHeartbeat);
}
Expected<AggregatesMsg> decode_aggregates(const JsonValue& v) {
  return decode<AggregatesMsg>(v, kMsgAggregates);
}
Expected<FleetStatusMsg> decode_fleet_status(const JsonValue& v) {
  return decode<FleetStatusMsg>(v, kMsgFleetStatus);
}

}  // namespace dxbsp::svc
