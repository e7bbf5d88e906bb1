#pragma once
// Fault injection for the (d,x)-BSP simulator: seeded, fully
// deterministic plans of memory-system degradation.
//
// The cost model T = L + max(g·h_proc, d·h_bank) assumes every bank is
// healthy and serves a request every d cycles forever. The machines it
// models do not: DRAM sections suffer refresh conflicts (transiently
// slow banks), thermal stalls, and outright module failures. A FaultPlan
// describes such a scenario:
//   * slow windows  — bank b serves at multiplier·d cycles per request
//                     during [onset, onset+duration);
//   * bank deaths   — bank b stops serving at its onset; its traffic is
//                     re-spread deterministically over the surviving
//                     banks (spare-bank failover as a remapping layer on
//                     top of mem::BankMapping);
//   * request drops — an in-flight attempt is NACKed with probability
//                     drop_rate; the processor retries with exponential
//                     backoff plus deterministic jitter under a bounded
//                     retry budget. Budget exhaustion surfaces as a
//                     structured DegradedResult — never a hang, never a
//                     silently wrong count.
//
// Every decision (which banks, which attempts drop, each jitter draw) is
// a pure function of (seed, identifiers), so the same plan yields
// bit-identical simulation telemetry across runs and thread counts.
// docs/faults.md describes the model and its analytic companion.

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::fault {

/// Sentinel: no bank available (all banks dead at the query time).
inline constexpr std::uint64_t kNoBank = ~0ULL;

/// Sentinel duration: the fault persists for the rest of the run.
inline constexpr std::uint64_t kForever = ~0ULL;

/// Recovery behaviour of processors whose requests are NACKed.
struct RetryPolicy {
  std::uint64_t max_retries = 8;     ///< retry budget per request
  std::uint64_t backoff_base = 16;   ///< cycles before the first retry
  std::uint64_t backoff_cap = 4096;  ///< ceiling on the exponential delay
  std::uint64_t jitter = 8;          ///< deterministic jitter in [0, jitter]
};

/// Injected failure mode of the spill device (stream::SpillStore). The
/// memory-system faults above degrade the simulated machine; disk faults
/// degrade the host-side spill tier the streaming executor leans on, and
/// must surface as bounded retries and structured Errors, never a crash
/// or a silently short file (docs/streaming.md §failure modes).
enum class DiskFault : std::uint8_t {
  kNone,
  kSlow,        ///< every write stalls for disk_param milliseconds
  kShortWrite,  ///< every write() syscall lands only part of its bytes
  kEnospc,      ///< writes fail as ENOSPC from the disk_param-th chunk on
  kCorrupt,     ///< every chunk's payload is bit-flipped after the CRC
};

/// Scenario description; FaultPlan draws the affected banks from it.
struct FaultConfig {
  std::uint64_t seed = 1;

  double slow_fraction = 0.0;          ///< fraction of banks slowed
  std::uint64_t slow_multiplier = 4;   ///< busy-period multiplier while slow
  std::uint64_t slow_onset = 0;        ///< cycle the slow window opens
  std::uint64_t slow_duration = kForever;

  double dead_fraction = 0.0;  ///< fraction of banks killed
  std::uint64_t dead_onset = 0;

  double drop_rate = 0.0;  ///< per-attempt NACK probability
  RetryPolicy retry;

  DiskFault disk = DiskFault::kNone;  ///< spill-device failure mode
  std::uint64_t disk_param = 0;       ///< slow: ms per write; enospc: chunks

  /// True iff the config describes any memory-system fault (the modes
  /// Machine must run fault-aware for). Disk faults are deliberately not
  /// included: they live on the spill path, not the simulated machine.
  [[nodiscard]] bool any() const noexcept {
    return slow_fraction > 0.0 || dead_fraction > 0.0 || drop_rate > 0.0;
  }

  /// Throws Error{kConfig} if any parameter is out of range.
  void validate() const;

  /// Parses a fault spec string of comma-separated key=value pairs, e.g.
  /// "drop=0.01,slow=0.25,slow-mult=4,dead=0.125,seed=7". Keys: seed,
  /// slow, slow-mult, slow-onset, slow-dur, dead, dead-onset, drop,
  /// retries, backoff, backoff-cap, jitter, and the disk grammar
  /// disk=slow:N | short_write | enospc:K | corrupt. Throws Error{kParse}
  /// on unknown keys or bad values; the result is validate()d.
  [[nodiscard]] static FaultConfig parse(const std::string& spec);
};

/// One transient slowdown of one bank.
struct SlowWindow {
  std::uint64_t bank = 0;
  std::uint64_t onset = 0;
  std::uint64_t duration = kForever;
  std::uint64_t multiplier = 1;
};

/// One permanent bank failure.
struct BankDeath {
  std::uint64_t bank = 0;
  std::uint64_t onset = 0;
};

/// Structured report of a degraded bulk operation: how many requests
/// could not be completed and why. The simulator guarantees that
/// completed + failed_requests equals the request count (conservation).
struct DegradedResult {
  std::uint64_t failed_requests = 0;
  std::uint64_t first_failed_element = 0;  ///< element index (issue order)
  std::uint64_t attempts = 0;              ///< attempts spent on that element
  std::string reason;
};

/// Exception form of DegradedResult, thrown by Machine::scatter when a
/// fault plan is injected and the operation cannot fully complete.
/// Part of the dxbsp::Error taxonomy (code kDegraded), so generic
/// callers can route it by code while fault-aware ones keep catching
/// DegradedError for the structured result.
class DegradedError : public Error {
 public:
  explicit DegradedError(DegradedResult result)
      : Error(ErrorCode::kDegraded, "degraded operation: " + result.reason),
        result_(std::move(result)) {}
  [[nodiscard]] const DegradedResult& result() const noexcept {
    return result_;
  }

 private:
  DegradedResult result_;
};

/// A concrete, machine-sized fault scenario. Immutable and stateless
/// once built: all queries are const and pure, so one plan can drive
/// any number of concurrent simulations.
class FaultPlan {
 public:
  /// Draws the affected banks deterministically from cfg.seed.
  FaultPlan(const FaultConfig& cfg, std::uint64_t num_banks);

  /// Explicit scenario (tests, replaying known incidents).
  FaultPlan(std::uint64_t num_banks, std::vector<SlowWindow> slow,
            std::vector<BankDeath> deaths, double drop_rate = 0.0,
            RetryPolicy retry = {}, std::uint64_t seed = 1);

  [[nodiscard]] std::uint64_t num_banks() const noexcept { return num_banks_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] double drop_rate() const noexcept { return drop_rate_; }
  /// Spill-device failure mode (consumed by stream::SpillStore, which
  /// turns it into bounded retries / typed Errors; docs/streaming.md).
  [[nodiscard]] DiskFault disk_fault() const noexcept { return disk_; }
  [[nodiscard]] std::uint64_t disk_param() const noexcept {
    return disk_param_;
  }
  [[nodiscard]] const RetryPolicy& retry() const noexcept { return retry_; }
  [[nodiscard]] const std::vector<SlowWindow>& slow_windows() const noexcept {
    return slow_;
  }
  [[nodiscard]] const std::vector<BankDeath>& deaths() const noexcept {
    return deaths_;
  }

  /// Busy-period multiplier of `bank` for a request starting at `time`
  /// (1 when healthy; the max multiplier over overlapping windows).
  [[nodiscard]] std::uint64_t busy_multiplier(std::uint64_t bank,
                                              std::uint64_t time) const;

  [[nodiscard]] bool dead_at(std::uint64_t bank, std::uint64_t time) const;

  /// Number of banks still alive at `time`.
  [[nodiscard]] std::uint64_t alive_at(std::uint64_t time) const;

  /// Failover target for a request keyed `key` (its address) aimed at
  /// `bank` at `time`: the bank itself while alive, otherwise a
  /// deterministic hash-spread choice among the surviving banks (so dead
  /// traffic re-spreads uniformly instead of piling on one neighbour).
  /// Returns kNoBank when no bank is alive.
  [[nodiscard]] std::uint64_t failover(std::uint64_t bank, std::uint64_t key,
                                       std::uint64_t time) const;

  /// Whether attempt `attempt` (0 = first try) of request `request` is
  /// NACKed. Pure function of (seed, request, attempt).
  [[nodiscard]] bool drop(std::uint64_t request, std::uint64_t attempt) const;

  /// Backoff delay before retry `attempt` (>= 1) of `request`:
  /// min(cap, base·2^(attempt-1)) plus deterministic jitter.
  [[nodiscard]] std::uint64_t backoff_delay(std::uint64_t request,
                                            std::uint64_t attempt) const;

  /// Structural hash of the plan (banks, seed, drop rate, retry policy,
  /// every slow window and death): two plans hash equal iff they inject
  /// the same faults. Used by the drift detector to identify the fault
  /// context of a flagged superstep in run reports.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  // ---- Aggregates for the analytic degraded model (stats/degraded) ----

  /// Fraction of banks that die at some point.
  [[nodiscard]] double dead_fraction() const noexcept;
  /// Fraction of banks with at least one slow window.
  [[nodiscard]] double slow_fraction() const noexcept;
  /// Largest stall duty-cycle over slow banks: 1 - 1/multiplier. The
  /// effective delay of the slowest bank is d' = d / (1 - this).
  [[nodiscard]] double max_stall_fraction() const noexcept;

 private:
  void index_faults();

  std::uint64_t num_banks_ = 0;
  std::uint64_t seed_ = 1;
  double drop_rate_ = 0.0;
  RetryPolicy retry_;
  DiskFault disk_ = DiskFault::kNone;
  std::uint64_t disk_param_ = 0;
  std::vector<SlowWindow> slow_;    // sorted by bank
  std::vector<BankDeath> deaths_;   // sorted by bank
  std::vector<std::uint32_t> slow_begin_;  // per-bank offsets into slow_
  std::vector<std::uint64_t> death_onset_; // per-bank, kForever = alive
  std::uint64_t drop_seed_ = 0;
  std::uint64_t jitter_seed_ = 0;
  std::uint64_t spread_seed_ = 0;
};

}  // namespace dxbsp::fault
