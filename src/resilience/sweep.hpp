#pragma once
// Resumable, deadline-bounded execution of a parameter-grid sweep.
//
// SweepRunner drives one bench binary's grid: each point is a pure
// function of its 64-bit key (construct workload + machine, simulate,
// return a SnapshotRecord). The runner
//   * skips points already present in a --resume snapshot (after
//     verifying the snapshot's sweep_id matches this grid + seed);
//   * checkpoints crash-atomically after every completed point (and
//     always once at the end, completed or not);
//   * installs SIGINT/SIGTERM handlers, an optional wall-clock deadline
//     and an optional stall window on its CancelToken — both checked
//     whenever the token is polled, the stall window also whenever it is
//     beaten — and stops cleanly at the next point boundary (or
//     mid-point, via the token threaded into Machine/BankArray/
//     ThreadPool) when any of them trip;
//   * optionally fans points out over a ThreadPool — results are stored
//     per-key, so emitted output is identical for every pool size.
//
// Because every point is recomputed from its key alone and completed
// points are replayed from the snapshot verbatim, a resumed sweep's
// output is byte-identical to an uninterrupted run's.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "resilience/cancel.hpp"
#include "resilience/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace dxbsp::obs {
class JsonWriter;
}

namespace dxbsp::resilience {

/// Fingerprint of a sweep: bench id plus every parameter that shapes the
/// grid or its RNG streams. Resume refuses a snapshot whose id differs.
[[nodiscard]] std::uint64_t sweep_id(const std::string& bench,
                                     std::initializer_list<std::uint64_t>
                                         params);

struct SweepOptions {
  std::string checkpoint_path;  ///< empty = no checkpointing
  std::string resume_path;      ///< empty = fresh run
  double deadline_seconds = 0;  ///< <= 0 = no deadline
  double stall_seconds = 0;     ///< <= 0 = no stall window
  std::uint64_t threads = 0;    ///< 0/1 = serial; else pool of this size
  bool handle_signals = true;   ///< route SIGINT/SIGTERM to the token
  /// Called after every completed point (and after its checkpoint flush,
  /// when checkpointing) with (points done so far, grid total). Fleet
  /// workers hang heartbeats and partial-result publication off this;
  /// it runs on whichever thread finished the point.
  std::function<void(std::uint64_t, std::uint64_t)> on_progress;
};

enum class SweepStatus { kCompleted, kInterrupted };

/// Stable lower-case name ("completed" / "interrupted").
[[nodiscard]] const char* sweep_status_name(SweepStatus status) noexcept;

/// What happened; the structured "Interrupted outcome" of docs/resilience.md.
struct SweepReport {
  SweepStatus status = SweepStatus::kCompleted;
  CancelCause cause = CancelCause::kNone;  ///< why, when interrupted
  std::size_t total = 0;      ///< grid points in the sweep
  std::size_t completed = 0;  ///< points done (resumed + newly computed)
  std::size_t resumed = 0;    ///< points replayed from the snapshot
  std::string checkpoint;     ///< path holding the final checkpoint ("" = none)

  [[nodiscard]] bool ok() const noexcept {
    return status == SweepStatus::kCompleted;
  }

  /// Machine-readable emission: one JSON object with status, cause and
  /// the progress counters, written through the deterministic JsonWriter
  /// (so coordinators parse worker outcomes instead of scraping the
  /// human-formatted INTERRUPTED line).
  void write_json(obs::JsonWriter& w) const;
};

class SweepRunner {
 public:
  SweepRunner(std::uint64_t id, SweepOptions options);

  /// Runs fn(key) for every key not already in the resume snapshot.
  /// Keys must be unique. fn must be a pure function of its key and is
  /// invoked concurrently when threads > 1. Returns the report; after a
  /// kCompleted report every key has a record(). The runner's token is
  /// re-armed (reset) at entry, so a runner whose previous run tripped
  /// (deadline, stall, cancel) can simply be run again — cancellation
  /// sources only count from the moment run() starts.
  SweepReport run(std::span<const std::uint64_t> keys,
                  const std::function<SnapshotRecord(std::uint64_t)>& fn);

  /// Record of a completed point (valid after run()).
  [[nodiscard]] const SnapshotRecord& record(std::uint64_t key) const;
  [[nodiscard]] bool has_record(std::uint64_t key) const noexcept;

  /// The token threaded through the sweep (expose to Machine::set_cancel
  /// inside point functions, or cancel() it from tests).
  [[nodiscard]] CancelToken& token() noexcept { return token_; }

 private:
  void flush_completed();

  std::uint64_t id_;
  SweepOptions options_;
  CancelToken token_;
  std::vector<std::uint64_t> keys_;
  std::vector<SnapshotRecord> records_;       // slot i <-> keys_[i]
  std::vector<std::unique_ptr<std::atomic<bool>>> done_;
  std::unique_ptr<CheckpointWriter> writer_;
  std::mutex flush_mu_;
};

}  // namespace dxbsp::resilience
