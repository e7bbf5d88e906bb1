#include "obs/metrics.hpp"

#include <algorithm>
#include <iterator>
#include <string>

#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "resilience/error.hpp"

namespace dxbsp::obs {

namespace {

const char* stability_name(Stability s) noexcept {
  return s == Stability::kHost ? "host" : "deterministic";
}

void write_histogram(JsonWriter& w, const MetricsRegistry::Entry& e) {
  w.member("total", e.value);
  w.key("bounds").begin_array();
  for (const std::uint64_t b : e.bounds) w.value(b);
  w.end_array();
  w.key("counts").begin_array();
  for (const std::uint64_t c : e.bucket_counts) w.value(c);
  w.end_array();
}

}  // namespace

const char* metric_kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    raise(ErrorCode::kConfig, "Histogram: bounds must be sorted");
}

void Histogram::observe(std::uint64_t x) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::add_counts(std::span<const std::uint64_t> counts) {
  if (counts.size() != buckets_.size())
    raise(ErrorCode::kConfig,
          "Histogram::add_counts: " + std::to_string(counts.size()) +
              " buckets, this histogram has " +
              std::to_string(buckets_.size()));
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::total() const noexcept {
  std::uint64_t t = 0;
  for (const auto& b : buckets_) t += b.load(std::memory_order_relaxed);
  return t;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

std::span<const std::uint64_t> pow4_bounds() noexcept {
  static const std::uint64_t bounds[] = {
      1ULL,        4ULL,        16ULL,       64ULL,
      256ULL,      1024ULL,     4096ULL,     16384ULL,
      65536ULL,    262144ULL,   1048576ULL,  4194304ULL,
      16777216ULL, 67108864ULL, 268435456ULL, 1073741824ULL};
  return bounds;
}

struct MetricsRegistry::Slot {
  MetricKind kind;
  Stability stability;
  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Slot& MetricsRegistry::slot(
    const std::string& name, MetricKind kind, Stability s,
    std::span<const std::uint64_t> bounds) {
  std::lock_guard lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    auto sl = std::make_unique<Slot>();
    sl->kind = kind;
    sl->stability = s;
    if (kind == MetricKind::kHistogram)
      sl->histogram = std::make_unique<Histogram>(
          std::vector<std::uint64_t>(bounds.begin(), bounds.end()));
    it = slots_.emplace(name, std::move(sl)).first;
  } else if (it->second->kind != kind) {
    raise(ErrorCode::kConfig,
          "MetricsRegistry: metric '" + name + "' already registered as " +
              metric_kind_name(it->second->kind) + ", requested " +
              metric_kind_name(kind));
  } else if (kind == MetricKind::kHistogram &&
             !std::equal(bounds.begin(), bounds.end(),
                         it->second->histogram->bounds().begin(),
                         it->second->histogram->bounds().end())) {
    raise(ErrorCode::kConfig, "MetricsRegistry: histogram '" + name +
                                  "' re-registered with different bounds");
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Stability s) {
  return slot(name, MetricKind::kCounter, s, {}).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Stability s) {
  return slot(name, MetricKind::kGauge, s, {}).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const std::uint64_t> bounds,
                                      Stability s) {
  return *slot(name, MetricKind::kHistogram, s, bounds).histogram;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::snapshot(
    bool include_host) const {
  std::lock_guard lock(mu_);
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const auto& [name, sl] : slots_) {  // std::map: sorted by name
    if (sl->stability == Stability::kHost && !include_host) continue;
    Entry e;
    e.name = name;
    e.kind = sl->kind;
    e.stability = sl->stability;
    switch (sl->kind) {
      case MetricKind::kCounter:
        e.value = sl->counter.value();
        break;
      case MetricKind::kGauge:
        e.value = sl->gauge.value();
        break;
      case MetricKind::kHistogram:
        e.bounds = sl->histogram->bounds();
        e.bucket_counts = sl->histogram->counts();
        e.value = sl->histogram->total();
        break;
    }
    out.push_back(std::move(e));
  }
  return out;
}

void MetricsRegistry::merge(const Entry& e) {
  switch (e.kind) {
    case MetricKind::kCounter:
      counter(e.name, e.stability).add(e.value);
      break;
    case MetricKind::kGauge:
      gauge(e.name, e.stability).observe(e.value);
      break;
    case MetricKind::kHistogram:
      histogram(e.name, e.bounds, e.stability).add_counts(e.bucket_counts);
      break;
  }
}

void MetricsRegistry::write_json(std::ostream& os, bool include_host) const {
  JsonWriter w(os);
  w.begin_object();
  write_object(w, "metrics", snapshot(include_host));
  w.end_object();
  os << '\n';
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, sl] : slots_) {
    sl->counter.reset();
    sl->gauge.reset();
    if (sl->histogram) sl->histogram->reset();
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return slots_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  return reg;
}

// One entry's object (the name is its key), internal to this file like
// the sketch codec in attribution.cpp.
static void write_json(JsonWriter& w, const MetricsRegistry::Entry& e) {
  w.member("kind", metric_kind_name(e.kind));
  w.member("stability", stability_name(e.stability));
  if (e.kind == MetricKind::kHistogram) {
    write_histogram(w, e);
  } else {
    w.member("value", e.value);
  }
}

static void read_json(JsonDecoder& d, MetricsRegistry::Entry& e) {
  const std::string kind = d.str("kind");
  const std::string stability = d.str("stability");
  if (!d.ok()) return;
  const MetricKind kinds[] = {MetricKind::kCounter, MetricKind::kGauge,
                              MetricKind::kHistogram};
  const auto* k = std::find_if(std::begin(kinds), std::end(kinds),
                               [&](MetricKind c) {
                                 return kind == metric_kind_name(c);
                               });
  if (k == std::end(kinds)) {
    d.fail("unknown kind '" + kind + "'");
    return;
  }
  e.kind = *k;
  if (stability == stability_name(Stability::kHost)) {
    e.stability = Stability::kHost;
  } else if (stability != stability_name(Stability::kDeterministic)) {
    d.fail("unknown stability '" + stability + "'");
    return;
  }
  if (e.kind != MetricKind::kHistogram) {
    e.value = d.u64("value");
    return;
  }
  e.value = d.u64("total");
  e.bounds = d.u64_array("bounds");
  e.bucket_counts = d.u64_array("counts");
  if (!d.ok()) return;
  if (!std::is_sorted(e.bounds.begin(), e.bounds.end()))
    d.fail("bounds are not sorted");
  else if (e.bucket_counts.size() != e.bounds.size() + 1)
    d.fail("counts holds " + std::to_string(e.bucket_counts.size()) +
           " buckets, bounds make " + std::to_string(e.bounds.size() + 1));
}

void write_json(JsonWriter& w, const std::vector<MetricsRegistry::Entry>& v) {
  for (const MetricsRegistry::Entry& e : v) write_object(w, e.name, e);
}

void read_json(JsonDecoder& d, std::vector<MetricsRegistry::Entry>& v) {
  for (const auto& [name, value] : d.value().members()) {
    MetricsRegistry::Entry& e = v.emplace_back();
    e.name = name;
    d.read_at(value, name, e);
  }
}

void write_json_values(JsonWriter& w,
                       const std::vector<MetricsRegistry::Entry>& v) {
  for (const MetricsRegistry::Entry& e : v) {
    if (e.kind == MetricKind::kHistogram) {
      w.key(e.name).begin_object();
      write_histogram(w, e);
      w.end_object();
    } else {
      w.member(e.name, e.value);
    }
  }
}

}  // namespace dxbsp::obs
