#include "svc/payload.hpp"

#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace dxbsp::svc {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

// ---------------------------------------------------------------------------
// Decoding helper: accumulates the first structural error instead of
// throwing, so codecs stay Expected-returning (a corrupt payload from a
// dying worker must never take the coordinator down with it).
class Dec {
 public:
  Dec(const JsonValue& v, std::string origin)
      : v_(v), origin_(std::move(origin)) {
    if (!v_.is_object()) fail("not an object");
  }

  [[nodiscard]] std::uint64_t u64(const char* key) {
    const JsonValue* m = req(key);
    if (m == nullptr) return 0;
    if (!m->is_number()) {
      fail(std::string(key) + " is not a number");
      return 0;
    }
    return m->as_u64();
  }

  [[nodiscard]] double dbl(const char* key) {
    const JsonValue* m = req(key);
    if (m == nullptr) return 0;
    if (!m->is_number()) {
      fail(std::string(key) + " is not a number");
      return 0;
    }
    return m->as_double();
  }

  [[nodiscard]] std::string str(const char* key) {
    const JsonValue* m = req(key);
    if (m == nullptr) return {};
    if (!m->is_string()) {
      fail(std::string(key) + " is not a string");
      return {};
    }
    return m->as_string();
  }

  [[nodiscard]] bool boolean(const char* key) {
    const JsonValue* m = req(key);
    if (m == nullptr) return false;
    if (m->kind() != JsonValue::Kind::kBool) {
      fail(std::string(key) + " is not a bool");
      return false;
    }
    return m->as_bool();
  }

  [[nodiscard]] const JsonValue* object(const char* key) {
    const JsonValue* m = req(key);
    if (m == nullptr) return nullptr;
    if (!m->is_object()) {
      fail(std::string(key) + " is not an object");
      return nullptr;
    }
    return m;
  }

  [[nodiscard]] const JsonValue* array(const char* key) {
    const JsonValue* m = req(key);
    if (m == nullptr) return nullptr;
    if (!m->is_array()) {
      fail(std::string(key) + " is not an array");
      return nullptr;
    }
    return m;
  }

  /// Optional member: nullptr (without error) when absent or null.
  [[nodiscard]] const JsonValue* opt(const char* key) const {
    const JsonValue* m = v_.find(key);
    return (m == nullptr || m->is_null()) ? nullptr : m;
  }

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] Error error() const {
    return Error(ErrorCode::kCorruptInput, origin_ + ": " + what_);
  }

  /// Propagates a nested decoder's failure into this one.
  void fail_from(const Dec& inner) {
    if (!inner.ok()) fail(inner.origin_ + ": " + inner.what_);
  }

  void fail(const std::string& what) {
    if (failed_) return;
    failed_ = true;
    what_ = what;
  }

 private:
  const JsonValue* req(const char* key) {
    const JsonValue* m = v_.find(key);
    if (m == nullptr) fail(std::string("missing member '") + key + "'");
    return m;
  }

  const JsonValue& v_;
  std::string origin_;
  bool failed_ = false;
  std::string what_;
};

std::vector<std::uint64_t> u64_array(const JsonValue& arr) {
  std::vector<std::uint64_t> out;
  out.reserve(arr.items().size());
  for (const JsonValue& item : arr.items()) out.push_back(item.as_u64());
  return out;
}

// ---------------------------------------------------------------------------
// Shared sub-schemas.

void write_breakdown(JsonWriter& w, const obs::CostBreakdown& c) {
  w.begin_object();
  w.member("issue_gap", c.issue_gap);
  w.member("window_stall", c.window_stall);
  w.member("latency", c.latency);
  w.member("bank_service", c.bank_service);
  w.member("retry_backoff", c.retry_backoff);
  w.member("failover", c.failover);
  w.member("cache_hit", c.cache_hit);
  w.end_object();
}

obs::CostBreakdown read_breakdown(const JsonValue& v,
                                  const std::string& origin, Dec& outer) {
  obs::CostBreakdown c;
  Dec d(v, origin);
  c.issue_gap = d.u64("issue_gap");
  c.window_stall = d.u64("window_stall");
  c.latency = d.u64("latency");
  c.bank_service = d.u64("bank_service");
  c.retry_backoff = d.u64("retry_backoff");
  c.failover = d.u64("failover");
  c.cache_hit = d.u64("cache_hit");
  outer.fail_from(d);
  return c;
}

void write_sketch(JsonWriter& w, const obs::BankLoadSketch& s) {
  w.begin_object();
  w.member("overflow", s.overflow);
  w.member("banks", s.banks);
  w.member("max", s.max);
  w.member("served", s.served);
  w.key("counts").begin_array();
  for (const std::uint64_t c : s.counts) w.value(c);
  w.end_array();
  w.end_object();
}

obs::BankLoadSketch read_sketch(const JsonValue& v, const std::string& origin,
                                Dec& outer) {
  obs::BankLoadSketch s;
  Dec d(v, origin);
  s.overflow = d.u64("overflow");
  s.banks = d.u64("banks");
  s.max = d.u64("max");
  s.served = d.u64("served");
  if (const JsonValue* arr = d.array("counts")) {
    if (arr->items().size() != s.counts.size()) {
      d.fail("sketch counts size mismatch");
      outer.fail_from(d);
      return s;
    }
    for (std::size_t i = 0; i < s.counts.size(); ++i)
      s.counts[i] = arr->items()[i].as_u64();
  }
  outer.fail_from(d);
  return s;
}

/// Metric entries travel identically in aggregates and telemetry.
void write_metric_entries(JsonWriter& w,
                          const std::vector<obs::MetricsRegistry::Entry>& v) {
  w.begin_array();
  for (const obs::MetricsRegistry::Entry& e : v) {
    w.begin_object();
    w.member("name", e.name);
    w.member("kind", obs::metric_kind_name(e.kind));
    w.member("host", e.stability == obs::Stability::kHost);
    w.member("value", e.value);
    if (e.kind == obs::MetricKind::kHistogram) {
      w.key("bounds").begin_array();
      for (const std::uint64_t b : e.bounds) w.value(b);
      w.end_array();
      w.key("counts").begin_array();
      for (const std::uint64_t c : e.bucket_counts) w.value(c);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
}

Expected<std::vector<obs::MetricsRegistry::Entry>> read_metric_entries(
    const JsonValue& arr, const std::string& origin) {
  std::vector<obs::MetricsRegistry::Entry> out;
  for (const JsonValue& ev : arr.items()) {
    Dec ed(ev, origin);
    obs::MetricsRegistry::Entry e;
    e.name = ed.str("name");
    const std::string kind = ed.str("kind");
    e.stability = ed.boolean("host") ? obs::Stability::kHost
                                     : obs::Stability::kDeterministic;
    e.value = ed.u64("value");
    if (kind == "counter") {
      e.kind = obs::MetricKind::kCounter;
    } else if (kind == "gauge") {
      e.kind = obs::MetricKind::kGauge;
    } else if (kind == "histogram") {
      e.kind = obs::MetricKind::kHistogram;
      if (const JsonValue* bounds = ed.array("bounds"))
        e.bounds = u64_array(*bounds);
      if (const JsonValue* counts = ed.array("counts"))
        e.bucket_counts = u64_array(*counts);
    } else if (ed.ok()) {
      return Error(ErrorCode::kCorruptInput,
                   origin + ": unknown metric kind '" + kind + "'");
    }
    if (!ed.ok()) return ed.error();
    out.push_back(std::move(e));
  }
  return out;
}

void write_aggregates_body(JsonWriter& w, const AggregatesMsg& m) {
  w.member("shard", m.shard);
  w.member("attempt", m.attempt);
  w.member("covered", m.covered);

  w.key("metrics");
  write_metric_entries(w, m.metrics);

  w.key("attribution").begin_object();
  w.member("supersteps", m.attribution.supersteps);
  w.member("cycles", m.attribution.cycles);
  w.key("terms");
  write_breakdown(w, m.attribution.terms);
  w.member("max_location_contention",
           m.attribution.max_location_contention);
  w.key("sketch");
  write_sketch(w, m.attribution.sketch);
  w.end_object();

  if (m.has_drift) {
    const obs::DriftDetector::Snapshot& d = m.drift;
    w.key("drift").begin_object();
    w.member("band", d.band);
    w.member("supersteps", d.supersteps);
    w.member("out_of_band", d.out_of_band);
    w.member("max_abs_rel_err", d.max_abs_rel_err);
    if (d.worst.valid) {
      w.key("worst").begin_object();
      w.member("track", d.worst.track);
      w.member("step", d.worst.step);
      w.member("measured", d.worst.measured);
      w.member("predicted", d.worst.predicted);
      w.member("rel_err", d.worst.rel_err);
      w.member("n", d.worst.n);
      w.member("h_proc", d.worst.h_proc);
      w.member("h_bank", d.worst.h_bank);
      w.member("location_contention", d.worst.location_contention);
      w.key("breakdown");
      write_breakdown(w, d.worst.breakdown);
      w.member("sketch_p50", d.worst.sketch_p50);
      w.member("sketch_p99", d.worst.sketch_p99);
      w.member("sketch_max", d.worst.sketch_max);
      w.member("mapping", d.worst.mapping);
      w.member("plan_fingerprint", d.worst.plan_fingerprint);
      w.end_object();
    } else {
      w.key("worst").null_value();
    }
    w.end_object();
  } else {
    w.key("drift").null_value();
  }

  // Engine-selection rows (obs/selector.hpp): a compact fixed-width
  // tuple per row, in SelectorRow field order. choice travels as the raw
  // index — the report writer, not the wire, renders names.
  w.key("selector").begin_array();
  for (const obs::SelectorRow& r : m.selector) {
    w.begin_object();
    w.member("track", r.track);
    w.member("step", r.step);
    w.member("n", r.n);
    w.member("h_proc", r.h_proc);
    w.member("window", r.window);
    w.member("plan_fingerprint", r.plan_fingerprint);
    w.member("measured", r.measured);
    w.member("eligible_dense", r.eligible_dense);
    w.member("eligible_soa", r.eligible_soa);
    w.member("forced", r.forced);
    w.member("fallback", r.fallback);
    w.member("choice", static_cast<std::uint64_t>(r.choice));
    w.end_object();
  }
  w.end_array();
}

Expected<AggregatesMsg> read_aggregates_body(const JsonValue& v,
                                             const std::string& origin) {
  AggregatesMsg m;
  Dec d(v, origin);
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.covered = d.u64("covered");

  if (const JsonValue* arr = d.array("metrics")) {
    auto entries = read_metric_entries(*arr, origin + ".metrics");
    if (!entries.ok()) return entries.error();
    m.metrics = std::move(entries).value();
  }

  if (const JsonValue* attr = d.object("attribution")) {
    Dec ad(*attr, origin + ".attribution");
    m.attribution.supersteps = ad.u64("supersteps");
    m.attribution.cycles = ad.u64("cycles");
    if (const JsonValue* terms = ad.object("terms"))
      m.attribution.terms = read_breakdown(*terms, origin + ".terms", ad);
    m.attribution.max_location_contention =
        ad.u64("max_location_contention");
    if (const JsonValue* sketch = ad.object("sketch"))
      m.attribution.sketch = read_sketch(*sketch, origin + ".sketch", ad);
    if (!ad.ok()) return ad.error();
  }

  if (const JsonValue* drift = d.opt("drift")) {
    m.has_drift = true;
    Dec dd(*drift, origin + ".drift");
    m.drift.band = dd.dbl("band");
    m.drift.supersteps = dd.u64("supersteps");
    m.drift.out_of_band = dd.u64("out_of_band");
    m.drift.max_abs_rel_err = dd.dbl("max_abs_rel_err");
    if (const JsonValue* worst = dd.opt("worst")) {
      obs::DriftWorst& ww = m.drift.worst;
      Dec wd(*worst, origin + ".drift.worst");
      ww.valid = true;
      ww.track = wd.u64("track");
      ww.step = wd.u64("step");
      ww.measured = wd.u64("measured");
      ww.predicted = wd.dbl("predicted");
      ww.rel_err = wd.dbl("rel_err");
      ww.n = wd.u64("n");
      ww.h_proc = wd.u64("h_proc");
      ww.h_bank = wd.u64("h_bank");
      ww.location_contention = wd.u64("location_contention");
      if (const JsonValue* bd = wd.object("breakdown"))
        ww.breakdown = read_breakdown(*bd, origin + ".breakdown", wd);
      ww.sketch_p50 = wd.u64("sketch_p50");
      ww.sketch_p99 = wd.u64("sketch_p99");
      ww.sketch_max = wd.u64("sketch_max");
      ww.mapping = wd.str("mapping");
      ww.plan_fingerprint = wd.u64("plan_fingerprint");
      if (!wd.ok()) return wd.error();
    }
    if (!dd.ok()) return dd.error();
  }

  // Tolerant: absent on payloads from before the selector existed.
  if (const JsonValue* sel = d.opt("selector")) {
    if (!sel->is_array())
      return Error(ErrorCode::kCorruptInput,
                   origin + ": selector is not an array");
    for (const JsonValue& rv : sel->items()) {
      Dec rd(rv, origin + ".selector");
      obs::SelectorRow r;
      r.track = rd.u64("track");
      r.step = rd.u64("step");
      r.n = rd.u64("n");
      r.h_proc = rd.u64("h_proc");
      r.window = rd.u64("window");
      r.plan_fingerprint = rd.u64("plan_fingerprint");
      r.measured = rd.u64("measured");
      r.eligible_dense = rd.boolean("eligible_dense");
      r.eligible_soa = rd.boolean("eligible_soa");
      r.forced = rd.boolean("forced");
      r.fallback = rd.boolean("fallback");
      const std::uint64_t choice = rd.u64("choice");
      if (rd.ok() && choice >= obs::kEngineChoices)
        return Error(ErrorCode::kCorruptInput,
                     origin + ": selector choice out of range");
      r.choice = static_cast<obs::EngineChoice>(choice);
      if (!rd.ok()) return rd.error();
      m.selector.push_back(r);
    }
  }

  if (!d.ok()) return d.error();
  return m;
}

template <typename Fn>
std::string encode(const Fn& body) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  body(w);
  w.end_object();
  return std::move(os).str();
}

}  // namespace

std::string encode_lease(const LeaseMsg& m) {
  return encode([&](JsonWriter& w) {
    w.member("shard", m.shard);
    w.member("attempt", m.attempt);
    w.member("resume_points", m.resume_points);
    w.member("checkpoint_path", m.checkpoint_path);
    w.member("heartbeat_path", m.heartbeat_path);
    w.member("aggregates_path", m.aggregates_path);
    w.member("result_path", m.result_path);
    w.member("deadline_seconds", m.deadline_seconds);
    w.member("hb_interval_seconds", m.hb_interval_seconds);
    w.member("chaos", m.chaos);
    w.member("flight_path", m.flight_path);
    w.member("trace_path", m.trace_path);
    w.member("telemetry_path", m.telemetry_path);
    w.member("flight_bytes", m.flight_bytes);
  });
}

Expected<LeaseMsg> decode_lease(const obs::JsonValue& v) {
  LeaseMsg m;
  Dec d(v, "lease");
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.resume_points = d.u64("resume_points");
  m.checkpoint_path = d.str("checkpoint_path");
  m.heartbeat_path = d.str("heartbeat_path");
  m.aggregates_path = d.str("aggregates_path");
  m.result_path = d.str("result_path");
  m.deadline_seconds = d.dbl("deadline_seconds");
  m.hb_interval_seconds = d.dbl("hb_interval_seconds");
  m.chaos = d.str("chaos");
  // Observability fields arrived with report v3; read them tolerantly so
  // a lease written before they existed still decodes (feature off).
  if (const JsonValue* fp = d.opt("flight_path"))
    m.flight_path = fp->is_string() ? fp->as_string() : "";
  if (const JsonValue* tp = d.opt("trace_path"))
    m.trace_path = tp->is_string() ? tp->as_string() : "";
  if (const JsonValue* mp = d.opt("telemetry_path"))
    m.telemetry_path = mp->is_string() ? mp->as_string() : "";
  if (const JsonValue* fb = d.opt("flight_bytes"))
    m.flight_bytes = fb->is_number() ? fb->as_u64() : 0;
  if (!d.ok()) return d.error();
  return m;
}

std::string encode_heartbeat(const HeartbeatMsg& m) {
  return encode([&](JsonWriter& w) {
    w.member("shard", m.shard);
    w.member("attempt", m.attempt);
    w.member("beat", m.beat);
    w.member("completed", m.completed);
    w.member("total", m.total);
    w.member("mono_us", m.mono_us);
    w.member("events", m.events);
  });
}

Expected<HeartbeatMsg> decode_heartbeat(const obs::JsonValue& v) {
  HeartbeatMsg m;
  Dec d(v, "heartbeat");
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.beat = d.u64("beat");
  m.completed = d.u64("completed");
  m.total = d.u64("total");
  if (const JsonValue* mu = d.opt("mono_us"))
    m.mono_us = mu->is_number() ? mu->as_u64() : 0;
  if (const JsonValue* ev = d.opt("events"))
    m.events = ev->is_number() ? ev->as_u64() : 0;
  if (!d.ok()) return d.error();
  return m;
}

std::string encode_telemetry(const TelemetryMsg& m) {
  return encode([&](JsonWriter& w) {
    w.member("shard", m.shard);
    w.member("attempt", m.attempt);
    w.member("mono_us", m.mono_us);
    w.member("completed", m.completed);
    w.member("resumed", m.resumed);
    w.member("total", m.total);
    w.member("events", m.events);
    w.key("metrics");
    write_metric_entries(w, m.metrics);
  });
}

Expected<TelemetryMsg> decode_telemetry(const obs::JsonValue& v) {
  TelemetryMsg m;
  Dec d(v, "telemetry");
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.mono_us = d.u64("mono_us");
  m.completed = d.u64("completed");
  m.resumed = d.u64("resumed");
  m.total = d.u64("total");
  m.events = d.u64("events");
  if (const JsonValue* arr = d.array("metrics")) {
    auto entries = read_metric_entries(*arr, "telemetry.metrics");
    if (!entries.ok()) return entries.error();
    m.metrics = std::move(entries).value();
  }
  if (!d.ok()) return d.error();
  return m;
}

std::string encode_fleet_status(const FleetStatusMsg& m) {
  return encode([&](JsonWriter& w) {
    w.member("mono_us", m.mono_us);
    w.member("shards", m.shards);
    w.member("completed_shards", m.completed_shards);
    w.member("leases_granted", m.leases_granted);
    w.member("retries", m.retries);
    w.member("worker_deaths", m.worker_deaths);
    w.member("stalls", m.stalls);
    w.member("revocations", m.revocations);
    w.member("points_total", m.points_total);
    w.member("points_completed", m.points_completed);
    w.key("rows").begin_array();
    for (const FleetStatusMsg::Shard& s : m.rows) {
      w.begin_object();
      w.member("shard", s.shard);
      w.member("phase", s.phase);
      w.member("attempt", s.attempt);
      w.member("completed", s.completed);
      w.member("total", s.total);
      w.member("events", s.events);
      w.member("updated_us", s.updated_us);
      w.end_object();
    }
    w.end_array();
  });
}

Expected<FleetStatusMsg> decode_fleet_status(const obs::JsonValue& v) {
  FleetStatusMsg m;
  Dec d(v, "fleet_status");
  m.mono_us = d.u64("mono_us");
  m.shards = d.u64("shards");
  m.completed_shards = d.u64("completed_shards");
  m.leases_granted = d.u64("leases_granted");
  m.retries = d.u64("retries");
  m.worker_deaths = d.u64("worker_deaths");
  m.stalls = d.u64("stalls");
  m.revocations = d.u64("revocations");
  m.points_total = d.u64("points_total");
  m.points_completed = d.u64("points_completed");
  if (const JsonValue* rows = d.array("rows")) {
    for (const JsonValue& rv : rows->items()) {
      Dec rd(rv, "fleet_status.rows");
      FleetStatusMsg::Shard s;
      s.shard = rd.str("shard");
      s.phase = rd.str("phase");
      s.attempt = rd.u64("attempt");
      s.completed = rd.u64("completed");
      s.total = rd.u64("total");
      s.events = rd.u64("events");
      s.updated_us = rd.u64("updated_us");
      if (!rd.ok()) return rd.error();
      m.rows.push_back(std::move(s));
    }
  }
  if (!d.ok()) return d.error();
  return m;
}

std::string encode_aggregates(const AggregatesMsg& m) {
  return encode([&](JsonWriter& w) { write_aggregates_body(w, m); });
}

Expected<AggregatesMsg> decode_aggregates(const obs::JsonValue& v) {
  return read_aggregates_body(v, "aggregates");
}

std::string encode_result(const ResultMsg& m) {
  return encode([&](JsonWriter& w) {
    w.member("shard", m.shard);
    w.member("attempt", m.attempt);
    w.member("status", m.status);
    w.member("cause", m.cause);
    w.member("total", m.total);
    w.member("completed", m.completed);
    w.member("resumed", m.resumed);
    w.member("elapsed_seconds", m.elapsed_seconds);
    if (m.has_info) {
      w.key("info").begin_object();
      w.member("bench", m.info.bench);
      w.member("description", m.info.description);
      w.member("machine", m.info.machine);
      w.member("seed", m.info.seed);
      w.key("flags").begin_object();
      for (const auto& [name, value] : m.info.flags) w.member(name, value);
      w.end_object();
      w.end_object();
    } else {
      w.key("info").null_value();
    }
    w.key("aggregates").begin_object();
    write_aggregates_body(w, m.aggregates);
    w.end_object();
  });
}

Expected<ResultMsg> decode_result(const obs::JsonValue& v) {
  ResultMsg m;
  Dec d(v, "result");
  m.shard = d.str("shard");
  m.attempt = d.u64("attempt");
  m.status = d.str("status");
  m.cause = d.str("cause");
  m.total = d.u64("total");
  m.completed = d.u64("completed");
  m.resumed = d.u64("resumed");
  m.elapsed_seconds = d.dbl("elapsed_seconds");
  if (const JsonValue* info = d.opt("info")) {
    Dec id(*info, "result.info");
    m.has_info = true;
    m.info.bench = id.str("bench");
    m.info.description = id.str("description");
    m.info.machine = id.str("machine");
    m.info.seed = id.u64("seed");
    if (const JsonValue* flags = id.object("flags")) {
      for (const auto& [name, value] : flags->members()) {
        if (!value.is_string())
          return Error(ErrorCode::kCorruptInput,
                       "result.info.flags." + name + " is not a string");
        m.info.flags.emplace_back(name, value.as_string());
      }
    }
    if (!id.ok()) return id.error();
  }
  if (const JsonValue* agg = d.object("aggregates")) {
    auto parsed = read_aggregates_body(*agg, "result.aggregates");
    if (!parsed.ok()) return parsed.error();
    m.aggregates = std::move(parsed).value();
  }
  if (!d.ok()) return d.error();
  return m;
}

}  // namespace dxbsp::svc
