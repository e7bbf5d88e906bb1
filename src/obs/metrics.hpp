#pragma once
// Metrics registry: named counters, gauges and fixed-bucket histograms
// that the simulator layers (Machine, BankArray, Network, ThreadPool,
// SweepRunner, the fault path) publish into, and that the run-report
// writer dumps per bench invocation (docs/observability.md).
//
// Concurrency: metric updates are single atomic RMW operations and may
// come from any thread (sweep points run on a pool). Lookup/registration
// takes a mutex, so hot code should cache the returned reference —
// returned references are stable for the registry's lifetime.
//
// Determinism: all metric values are unsigned 64-bit and every update is
// commutative (add for counters, max for gauges, per-bucket add for
// histograms). A fixed workload therefore produces bit-identical metric
// values for ANY interleaving of threads — the property that lets run
// reports be byte-identical across --threads settings. Metrics whose
// value depends on execution shape rather than the workload (pool sizes,
// checkpoint flush cadence) must be registered as Stability::kHost;
// reports exclude them by default. Iteration order is by name
// (lexicographic), never insertion or hash order.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace dxbsp::obs {

class JsonDecoder;
class JsonWriter;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
enum class Stability : std::uint8_t {
  kDeterministic,  ///< pure function of the workload; safe in reports
  kHost,           ///< varies with threads/host; excluded from reports
};

[[nodiscard]] const char* metric_kind_name(MetricKind k) noexcept;

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Max-gauge: records the largest observed value. Max (not last-write)
/// because last-write-wins depends on thread interleaving and would
/// break report determinism.
class Gauge {
 public:
  void observe(std::uint64_t x) noexcept {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (x > cur &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed-bucket histogram: bucket i counts observations x with
/// x <= bounds[i] (first matching bucket); one implicit overflow bucket
/// catches the rest. Bounds are fixed at registration — re-registering
/// the same name with different bounds is an error.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t x) noexcept;
  /// Per-bucket merge: adds another histogram's counts (same bounds;
  /// counts.size() must be bounds().size() + 1). The commutative merge
  /// path fleet coordinators use to fold per-shard snapshots together.
  void add_counts(std::span<const std::uint64_t> counts);
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// Bucket counts, bounds().size() + 1 entries (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t total() const noexcept;
  void reset() noexcept;

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
};

/// Power-of-4 bounds {1, 4, 16, ..., 4^15}: 16 buckets spanning the
/// cycle-count ranges the simulator produces. The shared default for
/// duration-shaped histograms.
[[nodiscard]] std::span<const std::uint64_t> pow4_bounds() noexcept;

class MetricsRegistry {
 public:
  // Out of line: Slot is incomplete here, so the implicit special
  // members cannot be instantiated by users of the header.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Looks up or creates the named metric. Throws Error{kConfig} if the
  /// name exists with a different kind (or different histogram bounds).
  Counter& counter(const std::string& name,
                   Stability s = Stability::kDeterministic);
  Gauge& gauge(const std::string& name,
               Stability s = Stability::kDeterministic);
  Histogram& histogram(const std::string& name,
                       std::span<const std::uint64_t> bounds,
                       Stability s = Stability::kDeterministic);

  /// One metric's value snapshot, for deterministic (sorted) iteration.
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    Stability stability = Stability::kDeterministic;
    std::uint64_t value = 0;                  // counter/gauge
    std::vector<std::uint64_t> bounds;        // histogram
    std::vector<std::uint64_t> bucket_counts; // histogram (incl. overflow)
  };

  /// Snapshot sorted by name. Host-stability metrics are included only
  /// when `include_host` (run reports pass false).
  [[nodiscard]] std::vector<Entry> snapshot(bool include_host) const;

  /// Merges one snapshot entry into this registry with the metric's own
  /// commutative update: counter add, gauge max, histogram per-bucket
  /// add. Registers the metric (kind, stability, bounds) when absent;
  /// throws Error{kConfig} on a kind or bounds mismatch — exactly the
  /// existing re-registration rules. Folding every shard's snapshot()
  /// into a fresh registry therefore reproduces the values a single
  /// process running all shards would have published.
  void merge(const Entry& e);

  /// Full JSON dump (used by --metrics=PATH; include host metrics so it
  /// sees everything).
  void write_json(std::ostream& os, bool include_host) const;

  /// Zeroes every metric value (registrations stay). Test/bench setup.
  void reset();

  [[nodiscard]] std::size_t size() const;

  /// The process-wide registry the simulator layers publish into.
  static MetricsRegistry& global();

 private:
  struct Slot;
  Slot& slot(const std::string& name, MetricKind kind, Stability s,
             std::span<const std::uint64_t> bounds);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;
};

/// Snapshot entries in the --metrics dump's shape: one member per entry,
/// named by the metric, holding {kind, stability, value} or, for a
/// histogram, {kind, stability, total, bounds, counts}. The svc wire
/// ships entries in this shape because a merge must know whether to add
/// or max. The reader rejects an unknown kind or stability, a bound or
/// count that is not a number, unsorted bounds and counts that are not
/// bounds + 1 long, so none of them can make merge() throw later.
void write_json(JsonWriter& w, const std::vector<MetricsRegistry::Entry>& v);
void read_json(JsonDecoder& d, std::vector<MetricsRegistry::Entry>& v);

/// The run report's "metrics" members: counters and gauges as bare
/// numbers, histograms as {total, bounds, counts}; kind and stability
/// are dropped.
void write_json_values(JsonWriter& w,
                       const std::vector<MetricsRegistry::Entry>& v);

}  // namespace dxbsp::obs
