#include "obs/report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "resilience/error.hpp"

#ifndef DXBSP_GIT_DESCRIBE
#define DXBSP_GIT_DESCRIBE "unknown"
#endif

namespace dxbsp::obs {

const char* build_git_describe() noexcept { return DXBSP_GIT_DESCRIBE; }

namespace {

/// Per-track timeline row: superstep makespan + event accounting. Only
/// deterministic quantities (the trace itself is deterministic).
struct TimelineRow {
  std::uint64_t track = 0;
  std::uint64_t superstep_cycles = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t counts[kTraceKinds] = {};
};

std::vector<TimelineRow> timeline_rows(const Tracer& tracer) {
  std::vector<TimelineRow> rows;
  for (const std::uint64_t id : tracer.track_ids()) {
    const TraceRing* ring = tracer.find(id);
    if (ring == nullptr) continue;
    TimelineRow row;
    row.track = id;
    row.recorded = ring->recorded();
    row.dropped = ring->dropped();
    for (std::size_t k = 0; k < kTraceKinds; ++k)
      row.counts[k] = ring->count(static_cast<TraceKind>(k));
    for (const TraceEvent& ev : ring->drain())
      if (ev.kind == TraceKind::kSuperstep)
        row.superstep_cycles = std::max(row.superstep_cycles, ev.ts + ev.dur);
    rows.push_back(row);
  }
  return rows;
}

// One `section,key,value` row per scalar leaf of `v`, whose path below
// the section is `key`.
void write_csv_rows(std::ostream& os, const std::string& section,
                    const std::string& key, const JsonValue& v) {
  const auto path = [&](const std::string& child) {
    return key.empty() ? child : key + "." + child;
  };
  std::string value;
  switch (v.kind()) {
    case JsonValue::Kind::kObject:
      for (const auto& [name, member] : v.members())
        write_csv_rows(os, section, path(name), member);
      return;
    case JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < v.items().size(); ++i)
        write_csv_rows(os, section, path(std::to_string(i)), v.items()[i]);
      return;
    case JsonValue::Kind::kNull:
      value = "null";
      break;
    case JsonValue::Kind::kBool:
      value = v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      value = v.raw_number();
      break;
    case JsonValue::Kind::kString:
      value = v.as_string();
      break;
  }
  os << csv_escape(section) << ',' << csv_escape(key) << ','
     << csv_escape(value) << '\n';
}

}  // namespace

void write_json(JsonWriter& w, const RunInfo& info) {
  w.member("bench", info.bench);
  w.member("description", info.description);
  w.member("machine", info.machine);
  w.member("seed", info.seed);
  w.key("flags").begin_object();
  for (const auto& [name, value] : info.flags) w.member(name, value);
  w.end_object();
}

void read_json(JsonDecoder& d, RunInfo& info) {
  info.bench = d.str("bench");
  info.description = d.str("description");
  info.machine = d.str("machine");
  info.seed = d.u64("seed");
  const JsonValue* flags = d.object("flags");
  if (flags == nullptr) return;
  for (const auto& [name, value] : flags->members()) {
    if (!value.is_string()) {
      d.fail("flags." + name + " is not a string");
      return;
    }
    info.flags.emplace_back(name, value.as_string());
  }
}

void write_report_json(std::ostream& os, const RunInfo& info,
                       const MetricsRegistry& metrics, const Tracer* tracer,
                       const AttributionAggregate* attribution,
                       const DriftDetector* drift, const SelectorLog* selector,
                       const DegradedInfo* degraded) {
  JsonWriter w(os);
  w.begin_object();
  w.member("report_version", kReportVersion);
  w.member("generator", "dxbsp");
  w.member("git", build_git_describe());
  write_json(w, info);

  w.key("metrics").begin_object();
  write_json_values(w, metrics.snapshot(/*include_host=*/false));
  w.end_object();

  if (attribution != nullptr)
    write_object(w, "attribution", attribution->snapshot());
  if (drift != nullptr) write_object(w, "drift", drift->snapshot());
  if (selector != nullptr) {
    const SelectorLog::Snapshot s = selector->snapshot();
    if (!s.rows.empty()) write_object(w, "selector", s);
  }

  if (degraded != nullptr) {
    w.key("degraded").begin_object();
    w.member("schema_version", kDegradedSchemaVersion);
    w.member("poisoned_shards", degraded->poisoned_shards);
    w.member("retries", degraded->retries);
    w.member("worker_deaths", degraded->worker_deaths);
    w.key("shards").begin_array();
    for (const DegradedInfo::Shard& s : degraded->shards) {
      w.begin_object();
      w.member("shard", s.shard);
      w.member("strikes", s.strikes);
      w.member("completed", s.completed);
      w.member("total", s.total);
      w.member("last_error", s.last_error);
      w.member("repro", s.repro);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (tracer != nullptr) {
    w.key("timeline").begin_array();
    for (const TimelineRow& row : timeline_rows(*tracer)) {
      w.begin_object();
      w.member("track", row.track);
      w.member("superstep_cycles", row.superstep_cycles);
      w.member("events_recorded", row.recorded);
      w.member("events_dropped", row.dropped);
      w.key("counts").begin_object();
      for (std::size_t k = 0; k < kTraceKinds; ++k)
        w.member(trace_kind_name(static_cast<TraceKind>(k)), row.counts[k]);
      w.end_object();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  os << '\n';
}

void write_report_csv(std::ostream& os, const RunInfo& info,
                      const MetricsRegistry& metrics, const Tracer* tracer,
                      const AttributionAggregate* attribution,
                      const DriftDetector* drift, const SelectorLog* selector,
                      const DegradedInfo* degraded) {
  std::ostringstream json;
  write_report_json(json, info, metrics, tracer, attribution, drift, selector,
                    degraded);
  const JsonValue doc = JsonValue::parse(json.str(), "report").value();
  os << "section,key,value\n";
  for (const auto& [key, v] : doc.members()) {
    if (v.is_object() || v.is_array()) {
      write_csv_rows(os, key, "", v);
    } else {
      write_csv_rows(os, "run", key, v);
    }
  }
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& fn) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) raise(ErrorCode::kIo, "cannot open '" + path + "' for writing");
  fn(os);
  os.flush();
  if (!os) raise(ErrorCode::kIo, "failed writing '" + path + "'");
}

}  // namespace dxbsp::obs
