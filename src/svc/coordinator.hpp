#pragma once
// Fault-tolerant multi-process sweep coordinator (docs/resilience.md
// §fleet mode).
//
// The coordinator partitions a sweep grid into S shards and runs them
// across W worker subprocesses — each worker a normal bench binary
// started with --svc-lease=FILE (svc/worker.hpp). Every shard is
// governed by a *lease*: the coordinator grants it, watches the
// worker's heartbeat file, and revokes it — SIGKILL plus requeue — when
// the worker dies or wedges (no new heartbeat for the stall window,
// measured on the coordinator's own poll clock: the `age` sweep_top
// shows).
//
// Partial results survive revocation: workers republish cumulative
// aggregates after every completed point (checkpoint first, aggregates
// second), so on revocation the coordinator banks whatever consistent
// prefix the attempt covered and re-leases only the remainder. The last
// aggregates message is the attempt's outcome: a worker that exits 0
// must have left one saying "completed", read through the same code as
// a partial, or the attempt fails like a death. Coordinator and worker
// name the attempt's files with one function, attempt_files
// (svc/payload.hpp), so the lease carries no paths. A shard
// whose attempts repeatedly fail *without banking any new progress*
// accumulates strikes, with bounded exponential backoff between grants;
// at max_strikes it is quarantined as poisoned, with the exact repro
// command for its key range recorded. Attempts that do make progress
// clear the strike count — a shard that keeps moving is never poisoned,
// and a shard that never moves can never hang the fleet.
//
// When every shard is done the per-shard aggregates are folded — in
// deterministic (shard, attempt) order, through the commutative
// MetricsRegistry / AttributionAggregate / DriftDetector merge paths —
// into ONE schema-versioned run report. Because each point's
// contribution is banked exactly once (see worker.hpp's truncation
// contract), a fleet report with no poisoned shards is byte-identical
// to the report a serial run of the same bench would write; a degraded
// fleet adds the structured "degraded" section and exits 69 (EX_UNAVAILABLE).
//
// Fleet observability (docs/observability.md §fleet) is always on, and
// everything it records is host-time, so it lives in the working
// directory, never in the report: per-attempt flight rings, the live
// fleet.status (whose final copy holds the lifecycle counters), the
// fleet timeline fleet.trace.json, and post_mortem.json when an attempt
// died. The coordinator reads each attempt's ring once, when its lease
// ends, and draws it on that attempt's lane of the timeline, shifted by
// the clock offset estimated from the attempt's heartbeats: the minimum
// of (receive time − worker mono_us) over new beats, which never falls
// below the true offset, so no worker event lands before its grant (an
// attempt that never beat is shifted by its grant time).

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "resilience/cancel.hpp"
#include "resilience/shard.hpp"
#include "svc/payload.hpp"

namespace dxbsp::svc {

struct CoordinatorOptions {
  /// The worker command: a bench binary plus its workload flags, exactly
  /// as the equivalent serial run would be invoked. The coordinator
  /// appends --svc-lease=FILE per grant.
  std::vector<std::string> worker_argv;
  std::string dir;  ///< working directory for protocol files (created)
  std::uint64_t workers = 2;  ///< concurrent leases
  std::uint64_t shards = 0;   ///< grid partitions (0 = 2 * workers)
  /// Stall window per lease; workers beat every min(0.05 s, window / 8).
  double heartbeat_timeout_seconds = 5.0;
  double deadline_seconds = 0;       ///< whole-fleet budget (0 = none)
  std::uint64_t max_strikes = 3;     ///< no-progress failures before poison
  /// Requeue delay, doubling per strike up to 20x itself.
  double backoff_base_seconds = 0.1;
  std::string chaos;        ///< fault-injection spec forwarded to workers
  std::string report_path;  ///< merged JSON run report ("" = none)
  std::string report_csv_path;  ///< merged CSV run report ("" = none)
  bool handle_signals = true;  ///< route SIGINT/SIGTERM to a clean stop
  std::ostream* log = nullptr;  ///< progress lines (null = quiet)
};

/// What the fleet did. Counters cover the whole run, all shards.
struct FleetReport {
  enum class Status { kCompleted, kDegraded, kInterrupted };
  Status status = Status::kCompleted;
  std::uint64_t shards = 0;
  std::uint64_t completed_shards = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t retries = 0;        ///< re-grants after a failed attempt
  std::uint64_t worker_deaths = 0;  ///< signals + exits other than 0/75
  std::uint64_t stalls = 0;         ///< heartbeat-timeout revocations
  std::uint64_t revocations = 0;    ///< leases the coordinator killed
  std::uint64_t strikes = 0;        ///< no-progress failures, all shards
  std::uint64_t points_total = 0;   ///< grid points across observed shards
  std::uint64_t points_completed = 0;  ///< points banked across all shards
  obs::DegradedInfo degraded;  ///< poisoned-shard record (when any)
  /// Harvested flight tails of dead attempts; written to the working
  /// directory as post_mortem.json when non-empty.
  obs::PostMortemInfo post_mortem;
  /// Per-shard wall-clock of the completing attempt, by shard index
  /// (0 when the shard never completed). Host-only; the scaling bench's
  /// raw material.
  std::vector<double> shard_elapsed_seconds;
  double elapsed_seconds = 0;  ///< whole-fleet wall clock (host-only)

  [[nodiscard]] bool ok() const noexcept {
    return status == Status::kCompleted;
  }
  /// 0 completed, 69 (EX_UNAVAILABLE) degraded, 75 (EX_TEMPFAIL)
  /// interrupted.
  [[nodiscard]] int exit_code() const noexcept;
  /// "completed", "degraded" or "interrupted".
  [[nodiscard]] const char* status_name() const noexcept;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opt);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Runs the fleet to completion (or interruption) and writes the
  /// merged report(s). Throws Error{kConfig} for unusable options and
  /// Error{kIo} when the working directory cannot be created.
  FleetReport run();

 private:
  struct ShardState;

  void grant(ShardState& s);
  void reap();
  void check_stalls();
  void revoke(ShardState& s, const std::string& why, bool already_dead);
  /// The attempt's last aggregates message, if it is its own.
  [[nodiscard]] Expected<AggregatesMsg> read_aggregates(
      const ShardState& s) const;
  void bank_partial(ShardState& s);
  /// Exit 0: the last aggregates message must say "completed", or the
  /// attempt fails like any other.
  void on_result(ShardState& s);
  void fail_attempt(ShardState& s, const std::string& why);
  void kill_all();
  void write_merged_reports();
  void harvest(ShardState& s, const std::string& why,
               const Expected<obs::FlightTail>& tail);
  /// Closes the attempt's lane of the fleet timeline: its lease span,
  /// then its flight ring, read once here and returned for harvest().
  Expected<obs::FlightTail> end_lease_obs(ShardState& s, const char* outcome);
  /// Writes fleet.status, at most every 0.25 s while the fleet runs; the
  /// publication once it has `ended` is unthrottled and names its status.
  void publish_fleet_status(bool ended);
  void write_observability_outputs();
  [[nodiscard]] double now() const;
  [[nodiscard]] std::uint64_t now_us() const;
  void log_line(const std::string& line) const;

  CoordinatorOptions opt_;
  std::vector<std::unique_ptr<ShardState>> states_;
  resilience::CancelToken stop_;  ///< fleet-level interrupt latch
  FleetReport fleet_;
  std::chrono::steady_clock::time_point epoch_{};

  // Fleet observability.
  std::unique_ptr<obs::EventLog> elog_;  ///< the fleet timeline
  std::uint64_t lanes_ = 0;              ///< attempt lanes named so far
  double last_status_pub_ = -1;          ///< fleet.status throttle
};

}  // namespace dxbsp::svc
