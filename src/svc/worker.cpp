#include "svc/worker.hpp"

#include <cstdio>
#include <span>
#include <utility>

#include "obs/metrics.hpp"
#include "resilience/snapshot.hpp"
#include "svc/wire.hpp"

namespace dxbsp::svc {

namespace {

/// The per-run() progress counters are synthesized by the coordinator
/// (total = grid total, resumed = 0) so a retried shard's merged report
/// stays byte-identical to a serial run's; workers keep them out of
/// their aggregates.
bool coordinator_synthesized(const std::string& name) {
  return name == "sweep.points_total" || name == "sweep.points_completed" ||
         name == "sweep.points_resumed";
}

}  // namespace

WorkerContext::~WorkerContext() { stop_heartbeat(); }

void WorkerContext::init(const std::string& lease_path) {
  auto decoded = decode_lease(wire_read_file(lease_path, kMsgLease).value());
  if (!decoded.ok()) throw decoded.error();
  lease_ = std::move(decoded).value();
  shard_ = resilience::ShardSpec::parse(lease_.shard);
  chaos_ = ChaosPlan::parse(lease_.chaos);
  const std::size_t slash = lease_path.rfind('/');
  files_ = attempt_files(
      slash == std::string::npos ? "." : lease_path.substr(0, slash),
      shard_.index, lease_.attempt);
  started_ = std::chrono::steady_clock::now();
  active_ = true;

  // The flight ring is best-effort: a worker that cannot open it still
  // computes its shard (the ring's absence is itself visible to the
  // coordinator, as an empty lane and an unreadable-ring post-mortem).
  try {
    flight_ = std::make_unique<obs::FlightRecorder>(files_.flight, started_);
  } catch (const Error&) {
    flight_.reset();
  }
}

std::uint64_t WorkerContext::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
}

std::uint64_t WorkerContext::sim_events_now() {
  for (const auto& e :
       obs::MetricsRegistry::global().snapshot(/*include_host=*/false))
    if (e.name == "sim.requests") return e.value;
  return 0;
}

std::uint64_t WorkerContext::prepare(std::uint64_t base_id,
                                     std::vector<std::uint64_t>& keys,
                                     resilience::SweepOptions& opt,
                                     const obs::RunInfo& info,
                                     const obs::AttributionAggregate*
                                         attribution,
                                     const obs::DriftDetector* drift,
                                     const obs::SelectorLog* selector) {
  if (!active_) return base_id;
  info_ = info;
  attribution_ = attribution;
  drift_ = drift;
  selector_ = selector;
  keys = shard_.slice(keys);
  keys_ = keys;
  last_ = aggregates_now(0);
  const std::uint64_t id = resilience::shard_sweep_id(base_id, shard_);

  // Serial + per-point flushing is what makes the checkpoint a
  // key-ordered prefix of the slice — the shape the banked-prefix
  // accounting below depends on.
  opt.threads = 0;
  opt.checkpoint_path = files_.checkpoint;

  if (lease_.resume_points > 0) {
    // Prior attempts banked the aggregates of the first resume_points
    // points; the checkpoint must hold at least that prefix (it is
    // flushed before the aggregates are published). Anything beyond it
    // was computed but never banked — truncate so it is recomputed and
    // aggregated this attempt, keeping every point counted exactly once.
    auto loaded = resilience::Snapshot::load(files_.checkpoint);
    if (!loaded.ok()) throw loaded.error();
    const resilience::Snapshot& snap = loaded.value();
    if (snap.sweep_id != id)
      raise(ErrorCode::kConfig,
            files_.checkpoint +
                ": checkpoint belongs to a different sweep/shard");
    if (snap.records.size() < lease_.resume_points)
      raise(ErrorCode::kCorruptSnapshot,
            files_.checkpoint + ": banked prefix of " +
                std::to_string(lease_.resume_points) + " points but only " +
                std::to_string(snap.records.size()) + " records");
    for (std::uint64_t i = 0; i < lease_.resume_points; ++i)
      if (snap.records[i].key != keys_[i])
        raise(ErrorCode::kCorruptSnapshot,
              files_.checkpoint + ": record " + std::to_string(i) +
                  " key " + std::to_string(snap.records[i].key) +
                  " does not match slice key " + std::to_string(keys_[i]));
    if (snap.records.size() > lease_.resume_points) {
      resilience::CheckpointWriter writer(files_.checkpoint, id);
      writer.flush(std::span<const resilience::SnapshotRecord>(snap.records)
                       .first(lease_.resume_points));
    }
    opt.resume_path = files_.checkpoint;
  } else {
    // Nothing banked: any leftover checkpoint is an unbanked tail from a
    // crashed attempt — start clean.
    std::remove(files_.checkpoint.c_str());
    opt.resume_path.clear();
  }

  completed_.store(lease_.resume_points, std::memory_order_relaxed);
  opt.on_progress = [this](std::uint64_t done, std::uint64_t total) {
    on_point(done, total);
  };

  if (flight_ != nullptr)
    flight_->append(obs::FlightKind::kPhase,
                    static_cast<std::uint8_t>(obs::FlightPhase::kLease),
                    lease_.resume_points, 0, keys_.size(), lease_.attempt);

  maybe_chaos(ChaosPhase::kLease);
  return id;
}

void WorkerContext::begin(resilience::CancelToken& token) {
  if (!active_) return;
  token_ = &token;
  hb_stop_ = false;
  hb_thread_ = std::thread([this] { heartbeat_loop(); });
}

void WorkerContext::heartbeat_loop() {
  const double interval =
      lease_.hb_interval_seconds > 0 ? lease_.hb_interval_seconds : 0.05;
  const auto period =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(interval));
  std::unique_lock lock(hb_mu_);
  for (;;) {
    HeartbeatMsg hb;
    hb.shard = lease_.shard;
    hb.attempt = lease_.attempt;
    hb.completed = completed_.load(std::memory_order_relaxed);
    hb.total = keys_.size();
    // The simulator pumps the token's heartbeat counter inside its event
    // loops, so `beat` advances even while one point runs for a long
    // time — a wedge *inside* a point still reads as a stall upstream.
    hb.beat = (token_ != nullptr ? token_->heartbeats() : 0) + hb.completed;
    hb.mono_us = now_us();
    hb.events = sim_events_now();
    lock.unlock();
    try {
      wire_write_file(files_.heartbeat, kMsgHeartbeat,
                      encode_heartbeat(hb));
    } catch (const Error&) {
      // A failed heartbeat write must not kill the worker; if it keeps
      // failing the coordinator sees a stall and revokes the lease.
    }
    lock.lock();
    if (hb_cv_.wait_for(lock, period, [this] { return hb_stop_; })) return;
  }
}

void WorkerContext::stop_heartbeat() {
  if (!hb_thread_.joinable()) return;
  {
    std::lock_guard lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  hb_thread_.join();
}

AggregatesMsg WorkerContext::aggregates_now(std::uint64_t covered) const {
  AggregatesMsg agg;
  agg.shard = lease_.shard;
  agg.attempt = lease_.attempt;
  agg.total = keys_.size();
  agg.covered = covered;
  agg.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  agg.info = info_;
  for (auto& e :
       obs::MetricsRegistry::global().snapshot(/*include_host=*/false))
    if (!coordinator_synthesized(e.name)) agg.metrics.push_back(std::move(e));
  if (attribution_ != nullptr) agg.attribution = attribution_->snapshot();
  if (drift_ != nullptr) {
    agg.has_drift = true;
    agg.drift = drift_->snapshot();
  }
  if (selector_ != nullptr) agg.selector = selector_->snapshot();
  return agg;
}

void WorkerContext::on_point(std::uint64_t done, std::uint64_t /*total*/) {
  completed_.store(done, std::memory_order_relaxed);
  // The runner flushed the checkpoint before this hook ran, so the
  // invariant "checkpoint >= banked aggregates" holds at every kill
  // point in between the two writes.
  const std::uint64_t covered = done - lease_.resume_points;
  if (flight_ != nullptr) {
    if (selector_ != nullptr) {
      const std::vector<obs::SelectorRow> rows = selector_->snapshot().rows;
      if (!rows.empty()) {
        const obs::SelectorRow& r = rows.back();
        flight_->append(obs::FlightKind::kSelector,
                        static_cast<std::uint8_t>(r.choice), r.step, r.n,
                        /*unused=*/0, r.measured);
      }
    }
    // The point phase record goes LAST so the harvester's "last protocol
    // phase" question reads straight off the final phase record.
    flight_->append(obs::FlightKind::kPhase,
                    static_cast<std::uint8_t>(obs::FlightPhase::kPoint),
                    covered, done, keys_.size(), lease_.attempt);
  }
  last_ = aggregates_now(covered);
  wire_write_file(files_.aggregates, kMsgAggregates, encode_aggregates(last_));
  maybe_chaos(ChaosPhase::kPoint, covered);
}

int WorkerContext::finish(const resilience::SweepReport& report) {
  if (!active_) return report.ok() ? 0 : exit_code(ErrorCode::kInterrupted);
  stop_heartbeat();
  if (flight_ != nullptr)
    flight_->append(obs::FlightKind::kPhase,
                    static_cast<std::uint8_t>(obs::FlightPhase::kResult),
                    report.completed, report.resumed, report.total,
                    lease_.attempt);
  maybe_chaos(ChaosPhase::kResult);

  AggregatesMsg agg =
      report.ok() ? aggregates_now(report.completed - report.resumed)
                  : std::move(last_);
  agg.status = resilience::sweep_status_name(report.status);
  agg.cause = resilience::cancel_cause_name(report.cause);
  wire_write_file(files_.aggregates, kMsgAggregates, encode_aggregates(agg));
  return report.ok() ? 0 : exit_code(ErrorCode::kInterrupted);
}

void WorkerContext::maybe_chaos(ChaosPhase phase, std::uint64_t point) {
  if (!active_ || chaos_.empty()) return;
  const ChaosEvent* ev =
      chaos_.match(shard_.index, lease_.attempt, phase, point);
  if (ev == nullptr) return;
  // Recorded as a distinct phase so the harvest can show that chaos
  // fired; the "last protocol phase" question skips it by design (a
  // point-kill should read as dying at "point", not at "chaos").
  if (flight_ != nullptr)
    flight_->append(obs::FlightKind::kPhase,
                    static_cast<std::uint8_t>(obs::FlightPhase::kChaos),
                    static_cast<std::uint64_t>(phase), point, 0,
                    lease_.attempt);
  // A hanging worker must hang *completely*: with the sampler still
  // running, heartbeats would keep advancing and the coordinator could
  // never tell this wedge from slow progress.
  stop_heartbeat();
  chaos_execute(*ev);
}

}  // namespace dxbsp::svc
