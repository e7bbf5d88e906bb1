#include "resilience/sweep.hpp"

#include <optional>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace dxbsp::resilience {

const char* sweep_status_name(SweepStatus status) noexcept {
  switch (status) {
    case SweepStatus::kCompleted: return "completed";
    case SweepStatus::kInterrupted: return "interrupted";
  }
  return "unknown";
}

void SweepReport::write_json(obs::JsonWriter& w) const {
  w.begin_object();
  w.member("status", sweep_status_name(status));
  w.member("cause", cancel_cause_name(cause));
  w.member("total", static_cast<std::uint64_t>(total));
  w.member("completed", static_cast<std::uint64_t>(completed));
  w.member("resumed", static_cast<std::uint64_t>(resumed));
  w.member("checkpoint", checkpoint);
  w.end_object();
}

std::uint64_t sweep_id(const std::string& bench,
                       std::initializer_list<std::uint64_t> params) {
  // Order-sensitive chain of mix64 over the bench name and parameters:
  // any difference in grid shape or seed yields a different id.
  std::uint64_t h = 0x64787362'73703031ULL;  // "dxbsp01"
  for (const char c : bench)
    h = util::mix64(h ^ static_cast<std::uint64_t>(
                            static_cast<unsigned char>(c)));
  for (const std::uint64_t p : params) h = util::mix64(h ^ p);
  return h;
}

SweepRunner::SweepRunner(std::uint64_t id, SweepOptions options)
    : id_(id), options_(std::move(options)) {
  // --resume without --checkpoint keeps checkpointing to the resume
  // file, so a twice-interrupted sweep still loses no work.
  if (options_.checkpoint_path.empty() && !options_.resume_path.empty())
    options_.checkpoint_path = options_.resume_path;
}

bool SweepRunner::has_record(std::uint64_t key) const noexcept {
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] == key)
      return done_[i]->load(std::memory_order_acquire);
  return false;
}

const SnapshotRecord& SweepRunner::record(std::uint64_t key) const {
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] == key) {
      if (!done_[i]->load(std::memory_order_acquire))
        raise(ErrorCode::kInternal,
              "SweepRunner::record: point " + std::to_string(key) +
                  " was not completed");
      return records_[i];
    }
  raise(ErrorCode::kInternal,
        "SweepRunner::record: unknown point key " + std::to_string(key));
}

void SweepRunner::flush_completed() {
  if (!writer_) return;
  // Flush cadence depends on thread interleaving: host stability.
  obs::MetricsRegistry::global()
      .counter("sweep.checkpoint_flushes", obs::Stability::kHost)
      .add();
  std::lock_guard lock(flush_mu_);
  std::vector<SnapshotRecord> done;
  done.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i)
    if (done_[i]->load(std::memory_order_acquire)) done.push_back(records_[i]);
  writer_->flush(done);
}

SweepReport SweepRunner::run(
    std::span<const std::uint64_t> keys,
    const std::function<SnapshotRecord(std::uint64_t)>& fn) {
  // Re-arm the token: a previous run's trip (deadline, stall, signal)
  // must not leak into this one, or a worker loop could never run a
  // second sweep after its first was interrupted. Nothing else observes
  // the token between runs — the per-run deadline, stall window and
  // signal routing below are all scoped to run().
  token_.reset();
  keys_.assign(keys.begin(), keys.end());
  records_.assign(keys_.size(), SnapshotRecord{});
  done_.clear();
  done_.reserve(keys_.size());
  std::unordered_map<std::uint64_t, std::size_t> slot;
  slot.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    done_.push_back(std::make_unique<std::atomic<bool>>(false));
    if (!slot.emplace(keys_[i], i).second)
      raise(ErrorCode::kConfig, "SweepRunner: duplicate point key " +
                                    std::to_string(keys_[i]));
  }

  SweepReport report;
  report.total = keys_.size();

  // Resume: replay completed points from the snapshot. A missing file is
  // a fresh start (first run of a sweep that will checkpoint there); a
  // corrupt file or one from a different sweep is a hard error — silently
  // recomputing would mask data loss.
  if (!options_.resume_path.empty()) {
    auto loaded = Snapshot::load(options_.resume_path);
    if (!loaded.ok() && loaded.error().code() != ErrorCode::kIo)
      throw loaded.error();
    if (loaded.ok()) {
      const Snapshot& snap = loaded.value();
      if (snap.sweep_id != id_)
        raise(ErrorCode::kConfig,
              "SweepRunner: snapshot " + options_.resume_path +
                  " belongs to a different sweep (grid or seed changed?)");
      for (const SnapshotRecord& r : snap.records) {
        const auto it = slot.find(r.key);
        if (it == slot.end())
          raise(ErrorCode::kCorruptSnapshot,
                options_.resume_path + ": snapshot point key " +
                    std::to_string(r.key) + " is not in this grid");
        records_[it->second] = r;
        done_[it->second]->store(true, std::memory_order_release);
        ++report.resumed;
      }
    }
  }

  if (!options_.checkpoint_path.empty())
    writer_ = std::make_unique<CheckpointWriter>(options_.checkpoint_path,
                                                 id_);

  token_.set_deadline(Deadline(options_.deadline_seconds));
  std::optional<ScopedSignalCancel> signals;
  if (options_.handle_signals) signals.emplace(token_);
  token_.set_stall(options_.stall_seconds);

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (!done_[i]->load(std::memory_order_acquire)) pending.push_back(i);

  // One point: compute, publish, heartbeat, checkpoint. Point functions
  // are pure in their key, so a point abandoned mid-simulation (token
  // tripped inside Machine::run) is simply recomputed — identically — on
  // resume.
  std::atomic<std::uint64_t> done_count{report.resumed};
  auto run_point = [&](std::size_t pi) {
    const std::size_t i = pending[pi];
    records_[i] = fn(keys_[i]);
    records_[i].key = keys_[i];
    done_[i]->store(true, std::memory_order_release);
    token_.heartbeat();
    flush_completed();
    // After the flush, so a progress observer that persists state sees
    // the checkpoint at least as far along as itself.
    if (options_.on_progress)
      options_.on_progress(done_count.fetch_add(1, std::memory_order_acq_rel) +
                               1,
                           keys_.size());
  };

  try {
    if (options_.threads > 1) {
      util::ThreadPool pool(options_.threads);
      pool.parallel_for(pending.size(), run_point, &token_);
    } else {
      for (std::size_t pi = 0; pi < pending.size(); ++pi) {
        if (token_.expired()) break;
        run_point(pi);
      }
    }
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kInterrupted) {
      if (writer_) flush_completed();  // keep finished points on disk
      throw;
    }
  }

  // The final checkpoint always happens: an interrupted run's promise is
  // "everything completed so far is on disk".
  if (writer_) flush_completed();

  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (done_[i]->load(std::memory_order_acquire)) ++report.completed;
  report.checkpoint = writer_ ? writer_->path() : "";
  // A sweep that finished every point is complete even if the token
  // tripped during the final one: the full output is valid.
  if (report.completed < report.total) {
    report.status = SweepStatus::kInterrupted;
    report.cause = token_.cause() == CancelCause::kNone
                       ? CancelCause::kCancelled
                       : token_.cause();
  }
  // Progress accounting for the run report: which points ran is a pure
  // function of the grid and the resume snapshot, not of --threads.
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("sweep.points_total").add(report.total);
  reg.counter("sweep.points_completed").add(report.completed);
  reg.counter("sweep.points_resumed").add(report.resumed);
  return report;
}

}  // namespace dxbsp::resilience
