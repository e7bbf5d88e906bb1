#include "obs/report.hpp"

#include <algorithm>
#include <fstream>

#include "obs/json.hpp"
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

}  // namespace

void write_report_json(std::ostream& os, const RunInfo& info,
                       const MetricsRegistry& metrics, const Tracer* tracer,
                       const AttributionAggregate* attribution,
                       const DriftDetector* drift, const SelectorLog* selector,
                       const DegradedInfo* degraded,
                       const PostMortemInfo* post_mortem,
                       const MetricsRegistry* fleet) {
  JsonWriter w(os);
  w.begin_object();
  w.member("report_version", kReportVersion);
  w.member("generator", "dxbsp");
  w.member("git", build_git_describe());
  w.member("bench", info.bench);
  w.member("description", info.description);
  w.member("machine", info.machine);
  w.member("seed", info.seed);

  w.key("flags").begin_object();
  for (const auto& [name, value] : info.flags) w.member(name, value);
  w.end_object();

  // Host-dependent fleet sections come BEFORE the deterministic ones so
  // stripping them line-wise leaves the byte-identical remainder intact
  // (ci compares an observability-enabled fleet report to a serial one).
  if (fleet != nullptr) {
    w.key("fleet").begin_object();
    w.member("schema_version", kFleetSchemaVersion);
    for (const auto& e : fleet->snapshot(/*include_host=*/true))
      w.member(e.name, e.value);
    w.end_object();
  }

  if (post_mortem != nullptr && !post_mortem->empty()) {
    w.key("post_mortem").begin_object();
    w.member("schema_version", kPostMortemSchemaVersion);
    w.member("harvests",
             static_cast<std::uint64_t>(post_mortem->harvests.size()));
    w.key("deaths").begin_array();
    for (const PostMortemInfo::Harvest& h : post_mortem->harvests) {
      w.begin_object();
      w.member("shard", h.shard);
      w.member("attempt", h.attempt);
      w.member("why", h.why);
      w.member("last_phase", h.last_phase);
      w.member("last_point", h.last_point);
      w.member("records", h.records);
      w.member("torn", h.torn);
      w.key("events").begin_array();
      for (const PostMortemInfo::Event& ev : h.events) {
        w.begin_object();
        w.member("kind", ev.kind);
        w.member("name", ev.name);
        w.member("seq", ev.seq);
        w.member("t_us", ev.t_us);
        w.member("a", ev.a);
        w.member("b", ev.b);
        w.member("c", ev.c);
        w.member("d", ev.d);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.key("metrics").begin_object();
  for (const auto& e : metrics.snapshot(/*include_host=*/false)) {
    if (e.kind == MetricKind::kHistogram) {
      w.key(e.name).begin_object();
      w.member("total", e.value);
      w.key("bounds").begin_array();
      for (const std::uint64_t b : e.bounds) w.value(b);
      w.end_array();
      w.key("counts").begin_array();
      for (const std::uint64_t c : e.bucket_counts) w.value(c);
      w.end_array();
      w.end_object();
    } else {
      w.member(e.name, e.value);
    }
  }
  w.end_object();

  if (attribution != nullptr) {
    const AttributionAggregate::Snapshot a = attribution->snapshot();
    w.key("attribution").begin_object();
    w.member("schema_version", kAttributionSchemaVersion);
    w.member("supersteps", a.supersteps);
    w.member("cycles", a.cycles);
    w.key("terms").begin_object();
    for (std::size_t i = 0; i < kCostTerms; ++i)
      w.member(cost_term_name(i), cost_term_value(a.terms, i));
    w.end_object();
    w.member("max_location_contention", a.max_location_contention);
    w.key("bank_load").begin_object();
    w.member("banks", a.sketch.banks);
    w.member("served", a.sketch.served);
    w.member("max", a.sketch.max);
    w.member("p50", a.sketch.p50());
    w.member("p90", a.sketch.p90());
    w.member("p99", a.sketch.p99());
    w.member("overflow", a.sketch.overflow);
    w.key("counts").begin_array();
    for (const std::uint64_t c : a.sketch.counts) w.value(c);
    w.end_array();
    w.end_object();
    w.end_object();
  }

  if (drift != nullptr) {
    const DriftDetector::Snapshot d = drift->snapshot();
    w.key("drift").begin_object();
    w.member("schema_version", kDriftSchemaVersion);
    w.member("band", d.band);
    w.member("supersteps", d.supersteps);
    w.member("out_of_band", d.out_of_band);
    w.member("max_abs_rel_err", d.max_abs_rel_err);
    if (d.worst.valid) {
      w.key("worst").begin_object();
      w.member("track", d.worst.track);
      w.member("step", d.worst.step);
      w.member("measured_cycles", d.worst.measured);
      w.member("predicted_cycles", d.worst.predicted);
      w.member("rel_err", d.worst.rel_err);
      w.member("n", d.worst.n);
      w.member("h_proc", d.worst.h_proc);
      w.member("h_bank", d.worst.h_bank);
      w.member("location_contention", d.worst.location_contention);
      w.key("breakdown").begin_object();
      for (std::size_t i = 0; i < kCostTerms; ++i)
        w.member(cost_term_name(i), cost_term_value(d.worst.breakdown, i));
      w.end_object();
      w.member("bank_load_p50", d.worst.sketch_p50);
      w.member("bank_load_p99", d.worst.sketch_p99);
      w.member("bank_load_max", d.worst.sketch_max);
      w.member("mapping", d.worst.mapping);
      w.member("fault_plan_fingerprint", d.worst.plan_fingerprint);
      w.end_object();
    } else {
      w.key("worst").null_value();
    }
    w.end_object();
  }

  if (selector != nullptr) {
    const SelectorLog::Snapshot s = selector->snapshot();
    if (!s.rows.empty()) {
      w.key("selector").begin_object();
      w.member("schema_version", kSelectorSchemaVersion);
      w.member("supersteps", static_cast<std::uint64_t>(s.rows.size()));
      w.key("rows").begin_array();
      for (const SelectorRow& r : s.rows) {
        w.begin_object();
        w.member("track", r.track);
        w.member("step", r.step);
        w.member("choice", engine_choice_name(r.choice));
        w.member("n", r.n);
        w.member("h_proc", r.h_proc);
        w.member("window", r.window);
        w.member("fault_plan_fingerprint", r.plan_fingerprint);
        w.member("eligible_dense", r.eligible_dense);
        w.member("eligible_soa", r.eligible_soa);
        w.member("forced", r.forced);
        w.member("fallback", r.fallback);
        w.member("measured_cycles", r.measured);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
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
                      const DegradedInfo* degraded,
                      const PostMortemInfo* post_mortem,
                      const MetricsRegistry* fleet) {
  os << "section,key,value\n";
  os << "run,report_version," << kReportVersion << '\n';
  os << "run,git," << csv_escape(build_git_describe()) << '\n';
  os << "run,bench," << csv_escape(info.bench) << '\n';
  os << "run,machine," << csv_escape(info.machine) << '\n';
  os << "run,seed," << info.seed << '\n';
  for (const auto& [name, value] : info.flags)
    os << "flag," << csv_escape(name) << ',' << csv_escape(value) << '\n';
  if (fleet != nullptr) {
    os << "fleet,schema_version," << kFleetSchemaVersion << '\n';
    for (const auto& e : fleet->snapshot(/*include_host=*/true))
      os << "fleet," << csv_escape(e.name) << ',' << e.value << '\n';
  }
  if (post_mortem != nullptr && !post_mortem->empty()) {
    os << "post_mortem,schema_version," << kPostMortemSchemaVersion << '\n';
    os << "post_mortem,harvests," << post_mortem->harvests.size() << '\n';
    for (const PostMortemInfo::Harvest& h : post_mortem->harvests) {
      const std::string key = "shard_" + h.shard;
      os << "post_mortem," << csv_escape(key + ".attempt") << ',' << h.attempt
         << '\n';
      os << "post_mortem," << csv_escape(key + ".why") << ','
         << csv_escape(h.why) << '\n';
      os << "post_mortem," << csv_escape(key + ".last_phase") << ','
         << csv_escape(h.last_phase) << '\n';
      os << "post_mortem," << csv_escape(key + ".last_point") << ','
         << h.last_point << '\n';
      os << "post_mortem," << csv_escape(key + ".records") << ',' << h.records
         << '\n';
      os << "post_mortem," << csv_escape(key + ".torn") << ',' << h.torn
         << '\n';
      os << "post_mortem," << csv_escape(key + ".events") << ','
         << h.events.size() << '\n';
    }
  }
  for (const auto& e : metrics.snapshot(/*include_host=*/false))
    os << "metric," << csv_escape(e.name) << ',' << e.value << '\n';
  if (attribution != nullptr) {
    const AttributionAggregate::Snapshot a = attribution->snapshot();
    os << "attribution,schema_version," << kAttributionSchemaVersion << '\n';
    os << "attribution,supersteps," << a.supersteps << '\n';
    os << "attribution,cycles," << a.cycles << '\n';
    for (std::size_t i = 0; i < kCostTerms; ++i)
      os << "attribution,terms." << cost_term_name(i) << ','
         << cost_term_value(a.terms, i) << '\n';
    os << "attribution,max_location_contention," << a.max_location_contention
       << '\n';
    os << "attribution,bank_load.banks," << a.sketch.banks << '\n';
    os << "attribution,bank_load.served," << a.sketch.served << '\n';
    os << "attribution,bank_load.max," << a.sketch.max << '\n';
    os << "attribution,bank_load.p50," << a.sketch.p50() << '\n';
    os << "attribution,bank_load.p90," << a.sketch.p90() << '\n';
    os << "attribution,bank_load.p99," << a.sketch.p99() << '\n';
    os << "attribution,bank_load.overflow," << a.sketch.overflow << '\n';
  }
  if (drift != nullptr) {
    const DriftDetector::Snapshot d = drift->snapshot();
    os << "drift,schema_version," << kDriftSchemaVersion << '\n';
    os << "drift,band," << json_number(d.band) << '\n';
    os << "drift,supersteps," << d.supersteps << '\n';
    os << "drift,out_of_band," << d.out_of_band << '\n';
    os << "drift,max_abs_rel_err," << json_number(d.max_abs_rel_err) << '\n';
    if (d.worst.valid) {
      os << "drift,worst.track," << d.worst.track << '\n';
      os << "drift,worst.step," << d.worst.step << '\n';
      os << "drift,worst.measured_cycles," << d.worst.measured << '\n';
      os << "drift,worst.predicted_cycles," << json_number(d.worst.predicted)
         << '\n';
      os << "drift,worst.rel_err," << json_number(d.worst.rel_err) << '\n';
      os << "drift,worst.mapping," << csv_escape(d.worst.mapping) << '\n';
      os << "drift,worst.fault_plan_fingerprint," << d.worst.plan_fingerprint
         << '\n';
    }
  }
  if (selector != nullptr) {
    const SelectorLog::Snapshot s = selector->snapshot();
    if (!s.rows.empty()) {
      os << "selector,schema_version," << kSelectorSchemaVersion << '\n';
      os << "selector,supersteps," << s.rows.size() << '\n';
      for (const SelectorRow& r : s.rows) {
        const std::string key =
            "row_" + std::to_string(r.track) + "_" + std::to_string(r.step);
        os << "selector," << key << ".choice," << engine_choice_name(r.choice)
           << '\n';
        os << "selector," << key << ".n," << r.n << '\n';
        os << "selector," << key << ".h_proc," << r.h_proc << '\n';
        os << "selector," << key << ".window," << r.window << '\n';
        os << "selector," << key << ".fault_plan_fingerprint,"
           << r.plan_fingerprint << '\n';
        os << "selector," << key << ".eligible_dense,"
           << (r.eligible_dense ? "true" : "false") << '\n';
        os << "selector," << key << ".eligible_soa,"
           << (r.eligible_soa ? "true" : "false") << '\n';
        os << "selector," << key << ".forced," << (r.forced ? "true" : "false")
           << '\n';
        os << "selector," << key << ".fallback,"
           << (r.fallback ? "true" : "false") << '\n';
        os << "selector," << key << ".measured_cycles," << r.measured << '\n';
      }
    }
  }
  if (degraded != nullptr) {
    os << "degraded,schema_version," << kDegradedSchemaVersion << '\n';
    os << "degraded,poisoned_shards," << degraded->poisoned_shards << '\n';
    os << "degraded,retries," << degraded->retries << '\n';
    os << "degraded,worker_deaths," << degraded->worker_deaths << '\n';
    for (const DegradedInfo::Shard& s : degraded->shards) {
      os << "degraded,shard_" << csv_escape(s.shard) << ".strikes,"
         << s.strikes << '\n';
      os << "degraded,shard_" << csv_escape(s.shard) << ".completed,"
         << s.completed << '\n';
      os << "degraded,shard_" << csv_escape(s.shard) << ".total," << s.total
         << '\n';
      os << "degraded,shard_" << csv_escape(s.shard) << ".last_error,"
         << csv_escape(s.last_error) << '\n';
    }
  }
  if (tracer != nullptr) {
    for (const TimelineRow& row : timeline_rows(*tracer)) {
      os << "timeline,track_" << row.track << ".superstep_cycles,"
         << row.superstep_cycles << '\n';
      os << "timeline,track_" << row.track << ".events_recorded,"
         << row.recorded << '\n';
      os << "timeline,track_" << row.track << ".events_dropped,"
         << row.dropped << '\n';
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
