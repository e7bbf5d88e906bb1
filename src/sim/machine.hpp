#pragma once
// Event-driven cycle-level simulator of a high-bandwidth shared-memory
// multiprocessor with slow memory banks — the substrate standing in for
// the paper's Cray C90/J90 testbed (DESIGN.md §3).
//
// Mechanisms simulated:
//   * p processors, each issuing one memory request every g cycles into
//     the network, with at most S requests outstanding (the latency-hiding
//     "slackness" window; issue stalls when the window is full);
//   * a network with one-way latency L, optionally divided into sections
//     with per-section injection bandwidth (Network);
//   * B = x·p banks, each busy for d cycles per request, FIFO queueing
//     (BankArray);
//   * an address→bank mapping (mem::BankMapping).
//
// A bulk scatter/gather of n addresses is simulated exactly under this
// mechanism; the result is a cycle count directly comparable with the
// (d,x)-BSP prediction T = L + max(g·h_proc, d·h_bank).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "cache/tier.hpp"
#include "fault/fault_plan.hpp"
#include "mem/bank_mapping.hpp"
#include "obs/attribution.hpp"
#include "obs/selector.hpp"
#include "obs/trace.hpp"
#include "resilience/cancel.hpp"
#include "sim/bank_array.hpp"
#include "sim/engine_select.hpp"
#include "sim/machine_config.hpp"
#include "sim/network.hpp"
#include "sim/telemetry.hpp"
#include "util/multiplicity.hpp"

namespace dxbsp::obs {
class DriftDetector;
}

namespace dxbsp::sim {

/// Outcome of one simulated bulk memory operation.
struct BulkResult {
  std::uint64_t cycles = 0;         ///< makespan: last response back at a CPU
  std::uint64_t n = 0;              ///< total requests
  std::uint64_t max_bank_load = 0;  ///< most requests on any bank (h_bank)
  std::uint64_t max_proc_requests = 0;  ///< most requests from any CPU (h_proc)
  std::uint64_t last_issue = 0;     ///< cycle the final request was issued
  std::uint64_t stall_cycles = 0;   ///< total issue delay from the S window
  std::uint64_t port_conflicts = 0; ///< sectioned-network queueing events
  /// Requests served without bank traffic: processor-tier cache hits
  /// (docs/cache.md) plus bank-side [HS93] MRU hits. 0 when both caches
  /// are disabled.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;    ///< processor-tier misses (0 when off)
  std::uint64_t cache_evictions = 0; ///< dirty-line writebacks to banks
  /// Most processor-tier misses charged to any one processor — the
  /// h_proc of the miss traffic (core::dxbsp_step_time_cached).
  std::uint64_t max_proc_miss = 0;
  std::uint64_t combined = 0;       ///< requests merged (if combining enabled)

  // Fault telemetry (all 0 without an injected plan).
  std::uint64_t completed = 0;       ///< requests that finished service
  std::uint64_t retries = 0;         ///< re-issues after a NACK
  std::uint64_t nacks = 0;           ///< attempts rejected by the memory system
  std::uint64_t failovers = 0;       ///< requests redirected off a dead bank
  std::uint64_t degraded_cycles = 0; ///< extra bank busy cycles from slowness

  // The op's access profile, worked out once per op (Machine::profile)
  // and read back by core::predict(result, ...) instead of a second
  // mapping and count of the addresses.
  /// Location contention k: requests aimed at the hottest single address
  /// (hottest bank for scatter_banks) — the paper's k in the d·k bound.
  std::uint64_t max_location_contention = 0;
  /// Distinct addresses requested (distinct bank ids for scatter_banks).
  std::uint64_t distinct_locations = 0;
  /// Pre-service mapped bank load: the most requests the route sends to
  /// any one bank, before any cache, failover, NACK or combining — the
  /// model's mapped h_bank. max_bank_load counts served requests instead.
  /// Like bank_sketch, this field and distinct_locations are not
  /// persisted in snapshots or svc payloads, so a caller predicts inside
  /// the sweep point, never from a restored record.
  std::uint64_t mapped_bank_load = 0;

  /// Fraction of bank service capacity used: d·n / (B · cycles).
  double bank_utilization = 0.0;

  /// Exact decomposition of `cycles` into issue-gap / window-stall /
  /// latency / bank-service / retry-backoff / failover. The terms sum to
  /// `cycles` — an identity Machine::run enforces on every operation and
  /// that holds bit-identically on every execution strategy
  /// (docs/observability.md §attribution).
  obs::CostBreakdown breakdown;

  /// Per-bank load distribution of this operation: served requests only,
  /// so NACK-failed (RequestTiming::kUnserved) slots never count.
  obs::BankLoadSketch bank_sketch;

  /// Average cycles per completed element. Failed requests (their timing
  /// slots hold RequestTiming::kUnserved) are excluded: a lossy run's
  /// per-element cost reflects the work that happened, not a denominator
  /// padded with requests that never finished.
  [[nodiscard]] double cycles_per_element() const noexcept {
    return cycles_per_element_of(cycles, completed);
  }
};

/// Outcome of a fault-aware bulk operation: the telemetry plus, when the
/// retry budget was exhausted or no bank was left alive, a structured
/// degradation report. bulk.completed + degraded->failed_requests == n
/// always holds (request conservation).
struct FaultyBulk {
  BulkResult bulk;
  std::optional<fault::DegradedResult> degraded;

  [[nodiscard]] bool ok() const noexcept { return !degraded.has_value(); }
};

/// The simulated machine. Construct once per configuration; bulk
/// operations are independent (state is reset between them).
class Machine {
 public:
  /// Uses the given mapping (shared so model-side analyses can observe
  /// the identical placement).
  Machine(MachineConfig config, std::shared_ptr<const mem::BankMapping> mapping);

  /// Convenience: interleaved mapping (bank = addr mod B).
  explicit Machine(MachineConfig config);

  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const mem::BankMapping& mapping() const noexcept {
    return *mapping_;
  }

  /// Per-request timing record of one bulk operation (scatter_detailed).
  /// All vectors have one entry per request, in element order.
  struct RequestTiming {
    /// Sentinel held in every slot of a request the fault path failed
    /// (retry budget exhausted / no bank alive): ~0 cannot be confused
    /// with a real cycle, unlike the 0 it used to read as. Served
    /// requests always overwrite all five slots; inspect `timing` after
    /// catching fault::DegradedError to see which requests never made it.
    static constexpr std::uint64_t kUnserved = ~0ULL;

    std::vector<std::uint64_t> issue;       ///< departure from the CPU
    std::vector<std::uint64_t> arrival;     ///< arrival at the bank
    std::vector<std::uint64_t> start;       ///< bank service start
    std::vector<std::uint64_t> completion;  ///< response back at the CPU
    /// Serving bank. A request served by the processor-tier cache never
    /// reached a bank: its bank slot stays kUnserved while its
    /// completion is real (arrival/start collapse to the issue time).
    std::vector<std::uint64_t> bank;

    /// Queue wait of request i (service start - bank arrival).
    [[nodiscard]] std::uint64_t wait(std::size_t i) const {
      return start[i] - arrival[i];
    }

    /// Whether request i completed (false: all its slots are kUnserved).
    [[nodiscard]] bool served(std::size_t i) const {
      return completion[i] != kUnserved;
    }
  };

  /// Attaches the selector log (non-owning; nullptr detaches): each bulk
  /// op appends one decision row under `track` (use the sweep-point key)
  /// — features, choice, measured cycles. Resets the superstep sequence
  /// so decision sequences are reproducible per attach point.
  void set_selector(obs::SelectorLog* log, std::uint64_t track = 0) noexcept {
    selector_log_ = log;
    selector_track_ = track;
    superstep_seq_ = 0;
  }

  /// Event-engine selection (docs/performance.md §selector). Unforced —
  /// the default — each bulk op is classified from cheap pre-dispatch
  /// features and dispatched to the calendar wheel, the binary heap, the
  /// dense fast path or the SoA batched kernel. selector().force(c) is
  /// the one way to pin a strategy, kReference (the original
  /// priority_queue loop) included; an ineligible pin is demoted to the
  /// nearest exact strategy. All strategies produce bit-identical
  /// BulkResult/RequestTiming/trace output
  /// (tests/engine_equivalence_test.cpp).
  [[nodiscard]] EngineSelector& selector() noexcept { return selector_; }

  /// Attaches a cancellation token (non-owning; may outlive bulk ops but
  /// must outlive the Machine's use of it). Every bulk operation's loop
  /// polls it every 4096 requests and aborts the operation with
  /// Error{kInterrupted} once it trips — and heartbeats it at the same
  /// cadence so the token's stall window can tell "long run" from
  /// "wedged run".
  /// Pass nullptr to detach.
  void set_cancel(const resilience::CancelToken* token) noexcept {
    cancel_ = token;
  }

  /// Attaches a trace ring (non-owning; must outlive the Machine's use
  /// of it): subsequent bulk operations record superstep spans, bank
  /// busy intervals, queue-depth samples, issue-stall spans and fault
  /// events into it (docs/observability.md). One ring per concurrent
  /// Machine — rings are single-writer. Pass nullptr to detach. When
  /// tracing is compiled out (DXBSP_OBS_TRACE=0) this is accepted and
  /// ignored.
  ///
  /// A tracer needs every event, so it disables the batched engines
  /// that cannot emit them — the documented --trace observer effect.
  void set_tracer(obs::TraceRing* ring) noexcept { trace_ = ring; }
  [[nodiscard]] obs::TraceRing* tracer() const noexcept { return trace_; }

  /// Attaches run-level attribution aggregation (non-owning; nullptr
  /// detaches): each bulk op's CostBreakdown and BankLoadSketch are
  /// merged into `agg` (commutative, so sweep-thread interleaving never
  /// changes the totals). Per-op attribution itself is always on.
  void set_attribution(obs::AttributionAggregate* agg) noexcept {
    attr_agg_ = agg;
  }

  /// Attaches a drift detector (non-owning; nullptr detaches): each bulk
  /// op is scored against the model prediction under `track` (use the
  /// sweep-point key). Resets this machine's superstep sequence number.
  void set_drift(obs::DriftDetector* detector,
                 std::uint64_t track = 0) noexcept {
    drift_ = detector;
    drift_track_ = track;
    superstep_seq_ = 0;
  }

  /// Attaches a fault plan: subsequent bulk operations run fault-aware
  /// (slow banks, failover off dead banks, NACK/retry). The plan must be
  /// sized to this machine's bank count. Pass nullptr to clear.
  void inject(std::shared_ptr<const fault::FaultPlan> plan);
  void clear_faults() noexcept { plan_.reset(); }
  [[nodiscard]] const fault::FaultPlan* fault_plan() const noexcept {
    return plan_.get();
  }

  /// Simulates a bulk scatter of the given word addresses. Element i is
  /// handled by the processor given by the configured distribution.
  /// With a fault plan injected, throws fault::DegradedError when the
  /// operation could not fully complete (use scatter_faulty to receive
  /// the structured result instead).
  [[nodiscard]] BulkResult scatter(std::span<const std::uint64_t> addrs);

  /// Fault-aware scatter that never throws on degradation: returns the
  /// telemetry plus an optional DegradedResult.
  [[nodiscard]] FaultyBulk scatter_faulty(std::span<const std::uint64_t> addrs);

  /// Like scatter, but additionally records per-request timing into
  /// `timing` (cleared and resized). Use for queue-dynamics studies; the
  /// cycle results are identical to scatter's.
  [[nodiscard]] BulkResult scatter_detailed(
      std::span<const std::uint64_t> addrs, RequestTiming& timing);

  /// Gather has identical timing to scatter on these machines (the paper
  /// reports "almost identical results"); provided for readable call sites.
  [[nodiscard]] BulkResult gather(std::span<const std::uint64_t> addrs) {
    return scatter(addrs);
  }

  /// Scatter where bank ids are supplied directly (mapping bypassed);
  /// used to study mapping effects in isolation.
  [[nodiscard]] BulkResult scatter_banks(std::span<const std::uint64_t> banks);

  /// Ablation: every request is available at the banks at time L with no
  /// issue pipelining (the bulk-synchronous delivery assumption of BSP).
  /// Requests are served in index order.
  [[nodiscard]] BulkResult scatter_bulk_delivery(
      std::span<const std::uint64_t> addrs);

  /// Cycles for an elementwise compute phase of `ops_per_element`
  /// operations over n elements spread across the processors (1 op/cycle,
  /// perfectly vectorized).
  [[nodiscard]] std::uint64_t compute(std::uint64_t n_elements,
                                      double ops_per_element) const;

  ~Machine();

 private:
  /// First-failure record the engines fill for the degraded epilogue.
  struct FailTally {
    std::uint64_t failed = 0;
    std::uint64_t first_elem = 0;
    std::uint64_t first_attempts = 0;
    const char* first_reason = nullptr;
  };

  FaultyBulk run(std::span<const std::uint64_t> ids, bool ids_are_banks,
                 RequestTiming* timing = nullptr);

  /// The op's one mapping-and-count pass. Returns the route plane (bank
  /// of every element; `ids` itself for scatter_banks, range-checked),
  /// leaves its per-bank tally in the workspace count plane, and fills
  /// the access profile: res.mapped_bank_load (the tally's max),
  /// res.max_location_contention and res.distinct_locations (counted by
  /// contention_; for scatter_banks, whose ids are banks, read off the
  /// tally instead). On a combining machine, when `combinable` is given,
  /// it is set to the addresses the op requests at least twice (the
  /// count lists them; empty for scatter_banks), which BankArray::reset
  /// seeds its combining table with.
  std::span<const std::uint64_t> profile(
      std::span<const std::uint64_t> ids, bool ids_are_banks, BulkResult& res,
      std::span<const std::uint64_t>* combinable = nullptr);

  /// The original priority_queue event loop (pre-calendar hot path);
  /// returns the makespan. It maps every event with its own bank_of
  /// instead of reading profile()'s route, so it stays an independent
  /// oracle for routing.
  std::uint64_t run_reference(std::span<const std::uint64_t> ids,
                              bool ids_are_banks, RequestTiming* timing,
                              BulkResult& res, FailTally& tally);

  /// Batched-routing engine over profile()'s `route`: one request step
  /// driven by the scheduled loops (calendar wheel or binary heap, per
  /// `choice`), by the dense pop-order walk (kDense) or by the fused SoA
  /// kernel (kSoA).
  std::uint64_t run_calendar(std::span<const std::uint64_t> ids,
                             std::span<const std::uint64_t> route,
                             bool ids_are_banks, RequestTiming* timing,
                             BulkResult& res, FailTally& tally,
                             obs::EngineChoice choice);

  /// The fused free-chain SoA kernel (docs/performance.md §soa);
  /// exact only under EngineFeatures::eligible_soa.
  /// `route` is the per-element bank plane profile() computed, with
  /// its per-bank counts in the workspace count plane.
  std::uint64_t run_soa(std::span<const std::uint64_t> route,
                        BulkResult& res, std::uint64_t max_count);

  /// Fire-and-forget write traffic from the cache tier: traverses the
  /// network and occupies a bank, acks to nobody. `whole_line` marks a
  /// dirty-eviction line transfer (routed by line id); a write-through
  /// forward is a single-word store routed by the word's own bank. A
  /// dead bank redirects to its failover spare (counted); with no spare
  /// the write is dropped — there is no requester to NACK.
  void line_writeback(std::uint64_t addr, std::uint64_t depart,
                      std::uint64_t proc, bool whole_line, BulkResult& res);

  MachineConfig config_;
  std::shared_ptr<const mem::BankMapping> mapping_;
  BankArray banks_;
  Network network_;
  // Processor-tier cache (docs/cache.md); null when disabled, so the
  // flat-memory hot paths carry a single pointer test.
  std::unique_ptr<cache::CacheTier> tier_;
  std::shared_ptr<const fault::FaultPlan> plan_;
  const resilience::CancelToken* cancel_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  obs::AttributionAggregate* attr_agg_ = nullptr;
  obs::DriftDetector* drift_ = nullptr;
  std::uint64_t drift_track_ = 0;
  obs::SelectorLog* selector_log_ = nullptr;
  std::uint64_t selector_track_ = 0;
  EngineSelector selector_;
  std::uint64_t superstep_seq_ = 0;
  // Per-op attribution scratch (critical-event latch + retry origins)
  // and the location-contention counter (an n-word partition buffer plus
  // a cache-sized table), reused across bulk ops.
  obs::CostAttributor attr_;
  util::MultiplicityCounter contention_;
  // Calendar-engine working state (scheduler buckets, route vector,
  // per-processor issue state, completion rings), allocated on first use
  // and reused across every bulk op of this Machine's lifetime.
  struct Workspace;
  std::unique_ptr<Workspace> state_;
};

}  // namespace dxbsp::sim
