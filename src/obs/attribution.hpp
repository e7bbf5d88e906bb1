#pragma once
// Per-bulk-op cost attribution for the (d,x)-BSP simulator
// (docs/observability.md §attribution).
//
// The paper's Eq. (1) decomposes a superstep as
//     T = 2L + max(g·h_proc, d·h_bank),
// but a measured makespan is one number. This layer recovers the
// decomposition exactly: the makespan of a bulk operation is the ack
// time of one critical request, and that request's lifetime splits into
//   issue_gap     j·g     — pipeline position of its j-th-issue slot
//   window_stall          — issue delay from the slackness window
//   retry_backoff         — failed round trips + backoff (fault plans)
//   latency               — wire time, request + response (≈ 2L)
//   bank_service          — queue wait + service at its bank (d·queue)
//   failover              — the same, when served by a failover spare
//   cache_hit             — local service in the processor's cache tier
//                           (docs/cache.md; replaces latency + bank time
//                           when the critical request hit locally)
// so the terms sum to the measured cycles by construction — an identity
// Machine::run enforces on every operation. All five execution
// strategies (obs::EngineChoice) latch the same critical event (pop
// order is identical), so the breakdown is bit-identical across them.
//
// The bank-load distribution of the operation is kept as a mergeable
// sketch: an exact histogram up to 64 requests per bank plus an
// overflow bucket and the max, from which nearest-rank tail quantiles
// (p50/p90/p99) are computed — exact whenever every bank saw at most 64
// requests, saturating to the max above that.
//
// Everything here is Stability::kDeterministic: pure functions of the
// workload, identical across engines, hosts and thread counts.

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>

#include "util/flat_map.hpp"

namespace dxbsp::obs {

class JsonDecoder;
class JsonWriter;

/// "attribution" section schema. Schema 2 added the cache_hit term to
/// every breakdown ("terms", the drift section's "worst.breakdown") for
/// the processor-cache tier.
inline constexpr std::uint64_t kAttributionSchemaVersion = 2;

/// Exact decomposition of one bulk operation's makespan (all cycles).
struct CostBreakdown {
  std::uint64_t issue_gap = 0;      ///< j·g of the critical request
  std::uint64_t window_stall = 0;   ///< slackness-window issue delay
  std::uint64_t latency = 0;        ///< network traversal, both ways
  std::uint64_t bank_service = 0;   ///< queue wait + service at the bank
  std::uint64_t retry_backoff = 0;  ///< NACK round trips + backoff delays
  std::uint64_t failover = 0;       ///< bank_service spent on a spare bank
  std::uint64_t cache_hit = 0;      ///< local service in the cache tier

  [[nodiscard]] std::uint64_t total() const noexcept {
    return issue_gap + window_stall + latency + bank_service +
           retry_backoff + failover + cache_hit;
  }

  void add(const CostBreakdown& o) noexcept {
    issue_gap += o.issue_gap;
    window_stall += o.window_stall;
    latency += o.latency;
    bank_service += o.bank_service;
    retry_backoff += o.retry_backoff;
    failover += o.failover;
    cache_hit += o.cache_hit;
  }

  friend bool operator==(const CostBreakdown&, const CostBreakdown&) = default;
};

/// Number of terms in a CostBreakdown; with cost_term_name/_value this
/// lets report writers and tables iterate the decomposition without
/// hand-listing the fields at every call site.
inline constexpr std::size_t kCostTerms = 7;
[[nodiscard]] const char* cost_term_name(std::size_t i) noexcept;
[[nodiscard]] std::uint64_t cost_term_value(const CostBreakdown& c,
                                            std::size_t i) noexcept;

/// Members of a breakdown object: one per term, named by cost_term_name.
void write_json(JsonWriter& w, const CostBreakdown& c);
void read_json(JsonDecoder& d, CostBreakdown& c);

/// Mergeable sketch of one (or many) bulk operations' per-bank load
/// distribution: counts[v] = number of banks that served exactly v
/// requests (v <= kExact), one overflow bucket above, plus max and the
/// total served. Merging sketches adds the histograms; quantiles are
/// recomputed from the merged counts.
struct BankLoadSketch {
  static constexpr std::uint64_t kExact = 64;

  std::array<std::uint64_t, kExact + 1> counts{};  ///< exact loads 0..64
  std::uint64_t overflow = 0;  ///< banks with load > kExact
  std::uint64_t banks = 0;     ///< banks observed (including idle ones)
  std::uint64_t max = 0;       ///< largest per-bank load seen
  std::uint64_t served = 0;    ///< sum of loads (requests that held a bank)

  void observe(std::uint64_t load) noexcept {
    if (load <= kExact) {
      ++counts[static_cast<std::size_t>(load)];
    } else {
      ++overflow;
    }
    ++banks;
    max = std::max(max, load);
    served += load;
  }

  void merge(const BankLoadSketch& o) noexcept {
    for (std::size_t v = 0; v <= kExact; ++v) counts[v] += o.counts[v];
    overflow += o.overflow;
    banks += o.banks;
    max = std::max(max, o.max);
    served += o.served;
  }

  /// Nearest-rank quantile of the per-bank load, p in (0, 1]. Exact when
  /// the rank falls in the histogram; a rank landing in the overflow
  /// bucket reports max (the sketch's upper bound for that region).
  [[nodiscard]] std::uint64_t quantile(double p) const noexcept {
    if (banks == 0) return 0;
    const double raw = p * static_cast<double>(banks);
    std::uint64_t rank = static_cast<std::uint64_t>(raw);
    if (static_cast<double>(rank) < raw) ++rank;  // ceil
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t cum = 0;
    for (std::size_t v = 0; v <= kExact; ++v) {
      cum += counts[v];
      if (cum >= rank) return v;
    }
    return max;
  }

  [[nodiscard]] std::uint64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return quantile(0.99); }

  friend bool operator==(const BankLoadSketch&,
                         const BankLoadSketch&) = default;
};

/// Per-operation scratch that latches the critical (makespan-defining)
/// event and its cost decomposition. Owned by Machine, shared by every
/// execution strategy; begin() is called once per bulk op.
///
/// Latch rule: the FIRST event in pop order whose ack strictly exceeds
/// every earlier ack. Pop order is identical across the five strategies
/// ((depart, proc, attempt, elem) tiebreaks), so the latched breakdown
/// is bit-identical among them.
class CostAttributor {
 public:
  void begin() noexcept {
    origin_gap_.clear();
    origin_depart_.clear();
    best_ = CostBreakdown{};
    best_ack_ = 0;
    any_ = false;
  }

  /// Records the issue origin of element `elem` before its first retry:
  /// `gap` = j·g of its fresh issue, `depart` = its fresh departure
  /// (gap + accumulated window stall). Called on the NACK of a fresh
  /// attempt only; later retries of the element look the origin up.
  void note_origin(std::uint64_t elem, std::uint64_t gap,
                   std::uint64_t depart) {
    origin_gap_.insert_or_assign(elem, gap);
    origin_depart_.insert_or_assign(elem, depart);
  }

  /// Whether element `elem` has a recorded issue origin (i.e. the event
  /// being attributed is a retry of it). Returns the origin through the
  /// out-params when present.
  [[nodiscard]] bool origin(std::uint64_t elem, std::uint64_t& gap,
                            std::uint64_t& depart) const noexcept {
    const std::uint64_t* g = origin_gap_.find(elem);
    if (g == nullptr) return false;
    gap = *g;
    depart = *origin_depart_.find(elem);
    return true;
  }

  /// Attributes one served event. `fresh_gap` is j·g when the event is a
  /// fresh issue (attempt 0); retries recover their origin from
  /// note_origin. `redirected`: the request was served by a failover
  /// spare, so its bank time is charged to `failover` instead of
  /// `bank_service`.
  void observe_served(std::uint64_t ack, bool fresh, std::uint64_t elem,
                      std::uint64_t fresh_gap, std::uint64_t depart,
                      std::uint64_t arrival, std::uint64_t served,
                      std::uint64_t return_latency, bool redirected) noexcept {
    if (any_ && ack <= best_ack_) return;
    CostBreakdown c = front_terms(fresh, elem, fresh_gap, depart);
    c.latency = (arrival - depart) + return_latency;
    const std::uint64_t bank = served - arrival;
    if (redirected) {
      c.failover = bank;
    } else {
      c.bank_service = bank;
    }
    latch(ack, c);
  }

  /// Attributes a request completed locally by the processor's cache
  /// tier (docs/cache.md): no wire or bank time — the lifetime is issue
  /// position + window stall + the tier's hit latency. Hits only happen
  /// on fresh issues (a NACKed request already missed), so there is no
  /// retry front.
  void observe_cache_hit(std::uint64_t ack, std::uint64_t fresh_gap,
                         std::uint64_t depart) noexcept {
    if (any_ && ack <= best_ack_) return;
    CostBreakdown c;
    c.issue_gap = fresh_gap;
    c.window_stall = depart - fresh_gap;
    c.cache_hit = ack - depart;
    latch(ack, c);
  }

  /// Attributes one unserved event (NACK or terminal failure): the whole
  /// round trip is wire time; no bank term.
  void observe_unserved(std::uint64_t ack, bool fresh, std::uint64_t elem,
                        std::uint64_t fresh_gap,
                        std::uint64_t depart) noexcept {
    if (any_ && ack <= best_ack_) return;
    CostBreakdown c = front_terms(fresh, elem, fresh_gap, depart);
    c.latency = ack - depart;
    latch(ack, c);
  }

  /// The latched critical event's decomposition; terms sum to the
  /// operation's makespan (all zero for an empty operation).
  [[nodiscard]] const CostBreakdown& breakdown() const noexcept {
    return best_;
  }

 private:
  /// issue_gap / window_stall / retry_backoff of the event: a fresh
  /// issue departs at j·g + stall; a retry adds its backoff round trips
  /// on top of the fresh departure recorded by note_origin.
  [[nodiscard]] CostBreakdown front_terms(bool fresh, std::uint64_t elem,
                                          std::uint64_t fresh_gap,
                                          std::uint64_t depart) const noexcept {
    CostBreakdown c;
    if (fresh) {
      c.issue_gap = fresh_gap;
      c.window_stall = depart - fresh_gap;
    } else {
      std::uint64_t gap = 0;
      std::uint64_t fresh_depart = 0;
      if (origin(elem, gap, fresh_depart)) {
        c.issue_gap = gap;
        c.window_stall = fresh_depart - gap;
        c.retry_backoff = depart - fresh_depart;
      } else {
        // Unreachable by construction (every retry's fresh NACK calls
        // note_origin); charge the whole front to retry so the identity
        // still holds rather than silently under-counting.
        c.retry_backoff = depart;
      }
    }
    return c;
  }

  void latch(std::uint64_t ack, const CostBreakdown& c) noexcept {
    best_ = c;
    best_ack_ = ack;
    any_ = true;
  }

  util::FlatMap64 origin_gap_;
  util::FlatMap64 origin_depart_;
  CostBreakdown best_;
  std::uint64_t best_ack_ = 0;
  bool any_ = false;
};

/// Run-level aggregation of per-op attributions, merged commutatively so
/// the totals are bit-identical for any sweep-thread interleaving.
/// Written into the run report's "attribution" section (obs/report.cpp).
class AttributionAggregate {
 public:
  struct Snapshot {
    std::uint64_t supersteps = 0;
    std::uint64_t cycles = 0;  ///< sum of per-op makespans
    CostBreakdown terms;       ///< per-term sums over all operations
    BankLoadSketch sketch;     ///< merged bank-load distribution
    std::uint64_t max_location_contention = 0;
  };

  void record(const CostBreakdown& terms, const BankLoadSketch& sketch,
              std::uint64_t location_contention, std::uint64_t cycles) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++snap_.supersteps;
    snap_.cycles += cycles;
    snap_.terms.add(terms);
    snap_.sketch.merge(sketch);
    snap_.max_location_contention =
        std::max(snap_.max_location_contention, location_contention);
  }

  [[nodiscard]] Snapshot snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

  /// Folds another aggregate's snapshot in (all fields commutative:
  /// sums, sketch merge, max). Merging every shard's snapshot of a
  /// partitioned sweep reproduces the single-process aggregate exactly —
  /// the path fleet coordinators use to assemble a merged report.
  void merge(const Snapshot& o) {
    const std::lock_guard<std::mutex> lock(mu_);
    snap_.supersteps += o.supersteps;
    snap_.cycles += o.cycles;
    snap_.terms.add(o.terms);
    snap_.sketch.merge(o.sketch);
    snap_.max_location_contention =
        std::max(snap_.max_location_contention, o.max_location_contention);
  }

 private:
  mutable std::mutex mu_;
  Snapshot snap_;
};

/// Members of the "attribution" section, schema_version first: the one
/// JSON shape of the aggregate, shared by the run report and the svc
/// aggregates payload.
void write_json(JsonWriter& w, const AttributionAggregate::Snapshot& a);
void read_json(JsonDecoder& d, AttributionAggregate::Snapshot& a);

}  // namespace dxbsp::obs
