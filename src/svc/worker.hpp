#pragma once
// Worker side of the sweep-coordinator protocol (docs/resilience.md
// §fleet mode): turns any SweepRunner-based bench into a leased shard
// worker.
//
// A worker is a normal bench process started by the coordinator with
// --svc-lease=FILE. The lease tells it which shard of the grid it owns,
// which attempt this is, and how many points earlier attempts already
// banked; the worker names every other file of the attempt itself, with
// attempt_files over the lease's directory (svc/payload.hpp). The
// WorkerContext then rewires the sweep:
//
//   * keys are sliced to the shard (resilience::ShardSpec), the sweep id
//     is shard-scoped (shard_sweep_id) so a foreign shard's checkpoint
//     can never be resumed by mistake;
//   * execution is forced serial (and SweepRunner flushes after every
//     point), so the checkpoint on disk is always a key-ordered prefix
//     of the slice;
//   * the checkpoint is truncated to exactly the banked prefix before
//     resuming: a point whose aggregates the coordinator never captured
//     is recomputed (deterministically, so its record is identical) and
//     re-aggregated — every point contributes to the fleet totals
//     exactly once;
//   * after every completed point (checkpoint already flushed — the
//     runner's on_progress ordering guarantees it) the worker atomically
//     republishes cumulative partial aggregates, so at any kill point
//     the coordinator can bank a consistent prefix; finish() publishes
//     the last one, whose status is the attempt's outcome;
//   * a sampler thread republishes a heartbeat file; its `beat` advances
//     with the simulator's own CancelToken heartbeats, so a worker
//     wedged *inside* a point reads as stalled, not merely slow.
//
// Chaos events from the lease (svc/chaos.hpp) are executed at the exact
// protocol phases they name; the heartbeat sampler is stopped first so a
// "hang" looks like a real wedge to the coordinator.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/drift.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "resilience/cancel.hpp"
#include "resilience/shard.hpp"
#include "resilience/sweep.hpp"
#include "svc/chaos.hpp"
#include "svc/payload.hpp"

namespace dxbsp::svc {

class WorkerContext {
 public:
  WorkerContext() = default;
  ~WorkerContext();
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  /// Loads and validates the lease file and names the attempt's files
  /// from its directory; the context becomes active. Throws
  /// Error{kIo/kCorruptInput/kParse/kConfig} on a missing or malformed
  /// lease.
  void init(const std::string& lease_path);

  /// False when init() was never called: every other method is then a
  /// no-op passthrough, so benches call the full sequence unconditionally.
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Applies the lease to the sweep about to run: slices `keys` to the
  /// shard, rewrites `opt` (serial, per-point checkpoints at the shard's
  /// checkpoint), truncates the checkpoint to the banked prefix,
  /// installs the partial-aggregates on_progress hook, and fires any
  /// lease-phase chaos. Returns the shard-scoped sweep id (or `base_id`
  /// unchanged when inactive). `info` is the run identity every
  /// aggregates message carries; `attribution`/`drift`/`selector` are the
  /// run's aggregates (bench::Obs's); drift and selector may be null.
  [[nodiscard]] std::uint64_t prepare(std::uint64_t base_id,
                                      std::vector<std::uint64_t>& keys,
                                      resilience::SweepOptions& opt,
                                      const obs::RunInfo& info,
                                      const obs::AttributionAggregate*
                                          attribution,
                                      const obs::DriftDetector* drift,
                                      const obs::SelectorLog* selector =
                                          nullptr);

  /// Starts the heartbeat sampler against the runner's token. Call after
  /// constructing the SweepRunner, before run().
  void begin(resilience::CancelToken& token);

  /// Stops heartbeats, fires result-phase chaos, atomically publishes
  /// the last aggregates message — its status the sweep's — and returns
  /// the process exit code (0 complete, EX_TEMPFAIL when interrupted).
  [[nodiscard]] int finish(const resilience::SweepReport& report);

 private:
  void on_point(std::uint64_t done, std::uint64_t total);
  [[nodiscard]] AggregatesMsg aggregates_now(std::uint64_t covered) const;
  void maybe_chaos(ChaosPhase phase, std::uint64_t point = 0);
  void stop_heartbeat();
  void heartbeat_loop();
  [[nodiscard]] std::uint64_t now_us() const;
  [[nodiscard]] static std::uint64_t sim_events_now();

  bool active_ = false;
  LeaseMsg lease_;
  AttemptFiles files_;
  resilience::ShardSpec shard_;
  ChaosPlan chaos_;
  std::vector<std::uint64_t> keys_;  ///< this shard's slice
  const obs::AttributionAggregate* attribution_ = nullptr;
  const obs::DriftDetector* drift_ = nullptr;
  const obs::SelectorLog* selector_ = nullptr;
  obs::RunInfo info_;
  /// The last message on_point published: an interrupted attempt's
  /// outcome, because the point the interrupt cut short may already have
  /// added to the live metrics and aggregates.
  AggregatesMsg last_;
  std::chrono::steady_clock::time_point started_{};

  // The worker's one record of itself (docs/observability.md §fleet):
  // its phase transitions and selector decisions, crash-safe on disk.
  // Null when the ring cannot be opened.
  std::unique_ptr<obs::FlightRecorder> flight_;

  // Heartbeat sampler state.
  resilience::CancelToken* token_ = nullptr;
  std::atomic<std::uint64_t> completed_{0};
  std::thread hb_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;
};

}  // namespace dxbsp::svc
