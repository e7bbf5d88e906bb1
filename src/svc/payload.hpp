#pragma once
// Typed payloads for the four sweep-coordinator protocol messages, with
// JSON codecs over the framed wire format (svc/wire.hpp), and the one
// function that names every file of an attempt (attempt_files):
//
//   lease       coordinator -> worker: your shard, attempt number, how
//               many points prior attempts already covered, the heartbeat
//               cadence and the (test-only) chaos spec. The worker names
//               its files itself, from the lease's directory.
//   heartbeat   worker -> coordinator: liveness + progress. Republished
//               every interval; the coordinator only cares that `beat`
//               keeps changing.
//   aggregates  worker -> coordinator: cumulative partial results of the
//               CURRENT attempt — the metric/attribution/drift state for
//               every point this attempt has completed, plus the run
//               identity. Republished after every point, atomically, so
//               whatever the coordinator captures after revoking a dead
//               lease is a consistent prefix it can bank before
//               re-leasing the remainder. The attempt's last publication
//               is its outcome: `status` turns from empty to "completed"
//               or "interrupted".
//   fleet_status
//               coordinator -> sweep_top: the live view of every shard,
//               built from the heartbeats the coordinator already reads.
//
// The aggregates travel in the run report's own section shapes, written
// and read by the obs/ codecs next to each type: "attribution", "drift"
// and "selector" are byte for byte what write_report_json emits for the
// same aggregates, and "info" holds the report header's members. Metric
// entries use the --metrics dump's per-entry shape instead of the
// report's bare numbers, because a merge must know each entry's kind
// (add or max) and stability. Decoders return Expected (never throw): a
// half-dead worker writing garbage must read as a strike, not a
// coordinator crash. Coordinator and worker are one build, so every
// member is required.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/drift.hpp"
#include "obs/json_read.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/selector.hpp"
#include "resilience/error.hpp"

namespace dxbsp::svc {

inline constexpr const char* kMsgLease = "lease";
inline constexpr const char* kMsgHeartbeat = "heartbeat";
inline constexpr const char* kMsgAggregates = "aggregates";
/// Fleet observability (docs/observability.md §fleet): the coordinator's
/// live view of every shard, the one file tools/sweep_top reads.
inline constexpr const char* kMsgFleetStatus = "fleet_status";

/// Every file of one attempt of one shard, all in the fleet directory.
/// The checkpoint is the shard's, shared by its attempts (a retry resumes
/// from it); the rest are the attempt's own, so a dead attempt's flight
/// ring, log and last aggregates survive its retry.
struct AttemptFiles {
  std::string lease;       ///< LeaseMsg, coordinator -> worker
  std::string heartbeat;   ///< HeartbeatMsg, worker -> coordinator
  std::string aggregates;  ///< AggregatesMsg, worker -> coordinator
  std::string checkpoint;  ///< resilience snapshot, per shard
  std::string flight;      ///< crash-safe flight ring (obs/flight.hpp)
  std::string log;         ///< the worker's stdout and stderr
};

[[nodiscard]] AttemptFiles attempt_files(const std::string& dir,
                                         std::uint64_t shard,
                                         std::uint64_t attempt);

struct LeaseMsg {
  std::string shard;  ///< "index/count" (resilience::ShardSpec::str)
  std::uint64_t attempt = 0;
  /// Points already covered by prior attempts' captured aggregates; the
  /// worker resumes from exactly this checkpoint prefix (truncating any
  /// uncaptured tail) so every point is aggregated exactly once.
  std::uint64_t resume_points = 0;
  /// Heartbeat publication cadence: min(0.05 s, stall window / 8).
  double hb_interval_seconds = 0;
  std::string chaos;  ///< forwarded ChaosPlan spec ("" = none)
};

struct HeartbeatMsg {
  std::string shard;
  std::uint64_t attempt = 0;
  std::uint64_t beat = 0;       ///< monotone while the worker is alive
  std::uint64_t completed = 0;  ///< points done (resumed + computed)
  std::uint64_t total = 0;      ///< points in the shard slice
  /// µs on the worker's monotonic clock when the beat was taken; the
  /// coordinator estimates the clock offset of the worker's flight ring
  /// from it for the fleet timeline (svc/coordinator.hpp).
  std::uint64_t mono_us = 0;
  /// Cumulative simulated events (sim.requests) this attempt — the
  /// events/sec numerator for sweep_top.
  std::uint64_t events = 0;
};

/// Coordinator -> sweep_top: the merged live view, republished on a
/// throttle from the poll loop and once more when the fleet ends, so the
/// final fleet.status holds the fleet's lifecycle counters. One row per
/// shard; the quarantined count is the number of "poisoned" rows.
struct FleetStatusMsg {
  std::uint64_t mono_us = 0;  ///< coordinator clock at publication
  /// Empty while the fleet runs; set only on the final publication, to
  /// the fleet's end status ("completed", "degraded" or "interrupted").
  std::string ended;
  std::uint64_t shards = 0;
  std::uint64_t completed_shards = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t retries = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t stalls = 0;
  std::uint64_t revocations = 0;
  std::uint64_t strikes = 0;  ///< no-progress failures, all shards
  std::uint64_t points_total = 0;
  std::uint64_t points_completed = 0;
  struct Shard {
    std::string shard;  ///< "index/count"
    std::string phase;  ///< queued/running/done/poisoned
    std::uint64_t attempt = 0;
    std::uint64_t completed = 0;
    std::uint64_t total = 0;
    std::uint64_t events = 0;      ///< last heartbeat's sim.requests
    std::uint64_t updated_us = 0;  ///< coordinator clock at last news
    std::uint64_t resumed = 0;     ///< banked points at the current grant
    /// Worker clock (mono_us) of the last heartbeat accepted from the
    /// current attempt: its wall time so far. 0 until the first beat.
    std::uint64_t beat_us = 0;
  };
  std::vector<Shard> rows;  ///< by shard index
};

struct AggregatesMsg {
  std::string shard;
  std::uint64_t attempt = 0;
  /// Empty while the attempt runs; its last message sets it to
  /// sweep_status_name: "completed" or "interrupted".
  std::string status;
  std::string cause;  ///< cancel_cause_name, set with `status`
  std::uint64_t total = 0;  ///< points in the shard slice
  /// Points this attempt has newly covered (and whose contributions are
  /// fully contained in the snapshots below). Excludes resumed points —
  /// their contributions were banked from earlier attempts.
  std::uint64_t covered = 0;
  double elapsed_seconds = 0;  ///< host-only; scaling bench input
  obs::RunInfo info;  ///< run identity for the merged report header
  std::vector<obs::MetricsRegistry::Entry> metrics;
  obs::AttributionAggregate::Snapshot attribution;
  bool has_drift = false;
  obs::DriftDetector::Snapshot drift;
  /// Engine-selection rows for the covered points (obs/selector.hpp);
  /// empty when the attempt ran no supersteps.
  obs::SelectorLog::Snapshot selector;
};

[[nodiscard]] std::string encode_lease(const LeaseMsg& m);
[[nodiscard]] std::string encode_heartbeat(const HeartbeatMsg& m);
[[nodiscard]] std::string encode_aggregates(const AggregatesMsg& m);
[[nodiscard]] std::string encode_fleet_status(const FleetStatusMsg& m);

[[nodiscard]] Expected<LeaseMsg> decode_lease(const obs::JsonValue& v);
[[nodiscard]] Expected<HeartbeatMsg> decode_heartbeat(const obs::JsonValue& v);
[[nodiscard]] Expected<AggregatesMsg> decode_aggregates(
    const obs::JsonValue& v);
[[nodiscard]] Expected<FleetStatusMsg> decode_fleet_status(
    const obs::JsonValue& v);

}  // namespace dxbsp::svc
