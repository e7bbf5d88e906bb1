#include "svc/coordinator.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "obs/attribution.hpp"
#include "obs/drift.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "svc/wire.hpp"

extern char** environ;

namespace dxbsp::svc {

namespace {

/// Event-loop cadence: how often the coordinator reaps, reads heartbeats
/// and grants. It bounds how late a stall is noticed.
constexpr auto kPoll = std::chrono::milliseconds(20);

/// Backoff ceiling as a multiple of the base: 0.1 s doubles to at most
/// 2 s. It binds only beyond five strikes.
constexpr double kBackoffCap = 20;

std::string join_argv(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& a : argv) {
    if (!out.empty()) out += ' ';
    out += a;
  }
  return out;
}

}  // namespace

int FleetReport::exit_code() const noexcept {
  switch (status) {
    case Status::kCompleted: return 0;
    case Status::kDegraded: return dxbsp::exit_code(ErrorCode::kDegraded);
    case Status::kInterrupted:
      return dxbsp::exit_code(ErrorCode::kInterrupted);
  }
  return dxbsp::exit_code(ErrorCode::kInternal);
}

const char* FleetReport::status_name() const noexcept {
  switch (status) {
    case Status::kCompleted: return "completed";
    case Status::kDegraded: return "degraded";
    case Status::kInterrupted: return "interrupted";
  }
  return "unknown";
}

/// Everything the coordinator knows about one shard's lease lifecycle.
struct Coordinator::ShardState {
  enum class Phase { kQueued, kRunning, kDone, kPoisoned };

  resilience::ShardSpec spec;
  Phase phase = Phase::kQueued;
  std::uint64_t attempt = 0;  ///< attempt index of the NEXT/current grant
  std::uint64_t grants = 0;   ///< total leases granted to this shard
  std::uint64_t strikes = 0;  ///< consecutive no-progress failures
  std::uint64_t banked = 0;   ///< points whose aggregates are captured
  std::uint64_t total = 0;    ///< slice size (0 until first observed)
  std::uint64_t resume_base = 0;  ///< banked at the current grant
  std::string last_error;
  double ready_at = 0;  ///< earliest next grant (coordinator seconds)

  // Live lease (kRunning only).
  pid_t pid = -1;
  std::uint64_t last_beat = 0;
  bool saw_beat = false;

  // Captured partials, in banking order; disjoint point ranges.
  std::vector<AggregatesMsg> banked_aggs;
  double elapsed = 0;  ///< completing attempt's wall clock

  AttemptFiles files;  ///< the current attempt's

  // Observability bookkeeping.
  std::uint64_t lane = 0;       ///< the attempt's fleet-timeline lane
  std::uint64_t grant_us = 0;   ///< coordinator clock at the grant
  std::uint64_t offset_us = 0;  ///< min(rx − mono_us) over new beats
  bool saw_offset = false;
  std::uint64_t last_completed = 0;  ///< last heartbeat's progress
  std::uint64_t last_events = 0;     ///< last heartbeat's sim.requests
  std::uint64_t last_beat_us = 0;    ///< last heartbeat's worker mono_us
  std::uint64_t updated_us = 0;      ///< coordinator clock at last news
};

Coordinator::Coordinator(CoordinatorOptions opt) : opt_(std::move(opt)) {
  if (opt_.worker_argv.empty())
    raise(ErrorCode::kConfig, "coordinator: empty worker command");
  if (opt_.workers == 0)
    raise(ErrorCode::kConfig, "coordinator: need at least one worker");
  if (opt_.dir.empty())
    raise(ErrorCode::kConfig, "coordinator: working directory required");
  if (opt_.heartbeat_timeout_seconds <= 0)
    raise(ErrorCode::kConfig, "coordinator: stall window must be positive");
  if (opt_.shards == 0) opt_.shards = 2 * opt_.workers;
  if (opt_.max_strikes == 0) opt_.max_strikes = 1;
}

Coordinator::~Coordinator() { kill_all(); }

double Coordinator::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::uint64_t Coordinator::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Coordinator::log_line(const std::string& line) const {
  if (opt_.log != nullptr) *opt_.log << "[svc] " << line << std::endl;
}

void Coordinator::grant(ShardState& s) {
  s.files = attempt_files(opt_.dir, s.spec.index, s.attempt);
  // Messages a previous fleet left in the same directory must not be
  // mistaken for this attempt's: remove them before the worker can run.
  std::remove(s.files.heartbeat.c_str());
  std::remove(s.files.aggregates.c_str());

  LeaseMsg lease;
  lease.shard = s.spec.str();
  lease.attempt = s.attempt;
  lease.resume_points = s.banked;
  // Eight beats per stall window: a live worker is never revoked for
  // one late beat.
  lease.hb_interval_seconds =
      std::min(0.05, opt_.heartbeat_timeout_seconds / 8);
  lease.chaos = opt_.chaos;
  wire_write_file(s.files.lease, kMsgLease, encode_lease(lease));
  s.resume_base = s.banked;

  std::vector<std::string> argv = opt_.worker_argv;
  argv.push_back("--svc-lease=" + s.files.lease);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, s.files.log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  pid_t pid = -1;
  const int rc =
      posix_spawnp(&pid, cargv[0], &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0)
    raise(ErrorCode::kIo, std::string("coordinator: cannot spawn '") +
                              opt_.worker_argv[0] +
                              "': " + std::strerror(rc));

  s.pid = pid;
  s.phase = ShardState::Phase::kRunning;
  s.saw_beat = false;
  s.last_beat = 0;
  ++fleet_.leases_granted;
  ++s.grants;
  // The grant timestamp doubles as the clock offset of attempts that die
  // before their first heartbeat: a worker's epoch necessarily postdates
  // its grant, so its ring shifted by it never precedes the grant.
  s.grant_us = now_us();
  s.saw_offset = false;
  s.offset_us = s.grant_us;
  s.last_completed = s.banked;
  s.last_events = 0;
  s.last_beat_us = 0;
  // The stall clock starts at the grant, so a worker that wedges before
  // its first heartbeat in a way waitpid cannot see (e.g. before exec)
  // is revoked like one that stops beating later.
  s.updated_us = s.grant_us;
  s.lane = ++lanes_;
  elog_->name_lane(s.lane, "shard " + s.spec.str() + " attempt " +
                               std::to_string(s.attempt));
  elog_->instant("grant", s.grant_us, s.lane,
                 {{"resume_points", std::to_string(s.banked)},
                  {"pid", std::to_string(pid)}});
  log_line("grant shard " + s.spec.str() + " attempt " +
           std::to_string(s.attempt) + " resume_points " +
           std::to_string(s.banked) + " pid " + std::to_string(pid));
}

Expected<AggregatesMsg> Coordinator::read_aggregates(
    const ShardState& s) const {
  auto msg = wire_read_file(s.files.aggregates, kMsgAggregates);
  if (!msg.ok()) return msg.error();
  auto agg = decode_aggregates(msg.value());
  if (!agg.ok()) return agg.error();
  const AggregatesMsg& a = agg.value();
  if (a.shard != s.spec.str() || a.attempt != s.attempt)
    return Error(ErrorCode::kCorruptInput,
                 "aggregates identify " + a.shard + " attempt " +
                     std::to_string(a.attempt) + ", expected " +
                     s.spec.str() + " attempt " + std::to_string(s.attempt));
  return agg;
}

void Coordinator::bank_partial(ShardState& s) {
  auto agg = read_aggregates(s);
  // Missing, torn or foreign partials: the retry covers the gap.
  if (!agg.ok() || agg.value().covered == 0) return;
  const AggregatesMsg& a = agg.value();
  s.banked = s.resume_base + a.covered;
  s.banked_aggs.push_back(std::move(agg).value());
  log_line("banked shard " + s.spec.str() + " attempt " +
           std::to_string(s.attempt) + ": " + std::to_string(a.covered) +
           " new points (" + std::to_string(s.banked) + " total)");
}

void Coordinator::fail_attempt(ShardState& s, const std::string& why) {
  s.pid = -1;
  s.last_error = why;
  // Harvest BEFORE the retry machinery runs: the next grant uses fresh
  // per-attempt paths, but the post_mortem must name THIS attempt.
  harvest(s, why, end_lease_obs(s, "failed"));

  const std::uint64_t before = s.banked;
  bank_partial(s);
  const bool progressed = s.banked > before;
  // A shard that keeps banking new points is converging — strikes only
  // count consecutive attempts that moved nothing, so "fails every N
  // points" completes while "fails at the same point forever" poisons.
  s.strikes = progressed ? 0 : s.strikes + 1;
  if (!progressed) ++fleet_.strikes;
  ++s.attempt;

  if (s.strikes >= opt_.max_strikes) {
    s.phase = ShardState::Phase::kPoisoned;
    obs::DegradedInfo::Shard rec;
    rec.shard = s.spec.str();
    rec.strikes = s.strikes;
    rec.completed = s.banked;
    rec.total = s.total;
    rec.last_error = why;
    rec.repro = join_argv(opt_.worker_argv) + " --shard=" + s.spec.str();
    fleet_.degraded.shards.push_back(std::move(rec));
    log_line("poisoned shard " + s.spec.str() + " after " +
             std::to_string(s.strikes) + " strikes: " + why);
    return;
  }

  const double backoff = std::min(
      kBackoffCap * opt_.backoff_base_seconds,
      opt_.backoff_base_seconds *
          static_cast<double>(std::uint64_t{1} << std::min<std::uint64_t>(
                                  s.strikes > 0 ? s.strikes - 1 : 0, 20)));
  s.ready_at = now() + (s.strikes > 0 ? backoff : 0.0);
  s.phase = ShardState::Phase::kQueued;
  ++fleet_.retries;
  log_line("requeue shard " + s.spec.str() + " (attempt " +
           std::to_string(s.attempt) + ", strikes " +
           std::to_string(s.strikes) + ", backoff " +
           std::to_string(backoff) + "s): " + why);
}

void Coordinator::on_result(ShardState& s) {
  auto agg = read_aggregates(s);
  if (!agg.ok()) {
    fail_attempt(s, std::string("exited 0 without its aggregates: ") +
                        agg.error().what());
    return;
  }
  AggregatesMsg a = std::move(agg).value();
  if (a.status != "completed") {
    fail_attempt(s, "exited 0 with status '" + a.status + "'");
    return;
  }

  s.pid = -1;
  end_lease_obs(s, "completed");
  s.total = a.total;
  s.banked = a.total;
  s.elapsed = a.elapsed_seconds;
  if (a.covered > 0 || s.banked_aggs.empty())
    s.banked_aggs.push_back(std::move(a));
  s.phase = ShardState::Phase::kDone;
  ++fleet_.completed_shards;
  log_line("done shard " + s.spec.str() + " attempt " +
           std::to_string(s.attempt) + " (" + std::to_string(s.total) +
           " points)");
}

void Coordinator::reap() {
  for (auto& sp : states_) {
    ShardState& s = *sp;
    if (s.phase != ShardState::Phase::kRunning) continue;
    int status = 0;
    const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
    if (r == 0) continue;
    if (r < 0) {
      // ECHILD etc.: the child is gone but unobservable; treat as death.
      ++fleet_.worker_deaths;
      fail_attempt(s, std::string("waitpid: ") + std::strerror(errno));
      continue;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      on_result(s);
    } else if (WIFEXITED(status) &&
               WEXITSTATUS(status) ==
                   dxbsp::exit_code(ErrorCode::kInterrupted)) {
      // Clean self-interruption (the worker command's own --deadline or
      // --stall-timeout): resumable, not a death.
      fail_attempt(s, "attempt interrupted (exit 75)");
    } else if (WIFEXITED(status)) {
      ++fleet_.worker_deaths;
      fail_attempt(s,
                   "worker exited " + std::to_string(WEXITSTATUS(status)));
    } else {
      ++fleet_.worker_deaths;
      fail_attempt(s, std::string("worker killed by signal ") +
                          std::to_string(WTERMSIG(status)));
    }
  }
}

void Coordinator::check_stalls() {
  const auto stall_us =
      static_cast<std::uint64_t>(opt_.heartbeat_timeout_seconds * 1e6);
  for (auto& sp : states_) {
    ShardState& s = *sp;
    if (s.phase != ShardState::Phase::kRunning) continue;
    auto msg = wire_read_file(s.files.heartbeat, kMsgHeartbeat);
    if (msg.ok()) {
      auto hb = decode_heartbeat(msg.value());
      if (hb.ok() && hb.value().shard == s.spec.str() &&
          hb.value().attempt == s.attempt) {
        if (hb.value().total > 0) s.total = hb.value().total;
        if (!s.saw_beat || hb.value().beat != s.last_beat) {
          s.saw_beat = true;
          s.last_beat = hb.value().beat;
          // Clock offset of the worker's flight ring: (receive − worker
          // mono) is the true epoch offset plus message latency, so the
          // minimum over new beats tightens toward — and never crosses
          // below — the true offset.
          const std::uint64_t rx = now_us();
          const std::uint64_t mono = hb.value().mono_us;
          if (mono > 0 && rx > mono) {
            const std::uint64_t off = rx - mono;
            if (!s.saw_offset || off < s.offset_us) {
              s.saw_offset = true;
              s.offset_us = off;
            }
          }
          s.last_completed = hb.value().completed;
          s.last_events = hb.value().events;
          s.last_beat_us = mono;
          s.updated_us = rx;
          elog_->counter("shard " + s.spec.str() + " completed", rx, s.lane,
                         hb.value().completed);
        }
      }
    }
    // Stalled: no new heartbeat for the whole window since the last one
    // (or since the grant) — the same `age` sweep_top shows.
    if (now_us() - s.updated_us >= stall_us) {
      ++fleet_.stalls;
      revoke(s, "heartbeat stalled for " +
                    std::to_string(opt_.heartbeat_timeout_seconds) + "s",
             /*already_dead=*/false);
    }
  }
}

void Coordinator::revoke(ShardState& s, const std::string& why,
                         bool already_dead) {
  ++fleet_.revocations;
  elog_->instant("revoke", now_us(), s.lane, {{"why", why}});
  if (!already_dead && s.pid > 0) {
    ::kill(s.pid, SIGKILL);
    int status = 0;
    ::waitpid(s.pid, &status, 0);
    ++fleet_.worker_deaths;
  }
  fail_attempt(s, why);
}

void Coordinator::harvest(ShardState& s, const std::string& why,
                          const Expected<obs::FlightTail>& tail) {
  obs::PostMortemInfo::Harvest h;
  h.shard = s.spec.str();
  h.attempt = s.attempt;
  h.why = why;
  if (!tail.ok()) {
    h.why += " (flight ring unreadable: " +
             std::string(tail.error().what()) + ")";
    fleet_.post_mortem.harvests.push_back(std::move(h));
    return;
  }
  const obs::FlightTail& t = tail.value();
  h.records = t.valid;
  h.torn = t.torn;
  for (const obs::FlightRecord& r : t.records) {
    // Chaos is bookkeeping about the injected fault, not a protocol
    // phase the worker reached on its own — the "where did it die"
    // answer skips it (a point-kill reads as dying at "point").
    if (r.kind == obs::FlightKind::kPhase &&
        r.sub != static_cast<std::uint8_t>(obs::FlightPhase::kChaos) &&
        r.sub < obs::kFlightPhases) {
      h.last_phase = obs::flight_phase_name(static_cast<obs::FlightPhase>(
          r.sub));
      if (r.sub == static_cast<std::uint8_t>(obs::FlightPhase::kPoint))
        h.last_point = r.a;
    }
  }
  constexpr std::size_t kTailEvents = 16;
  const std::size_t first =
      t.records.size() > kTailEvents ? t.records.size() - kTailEvents : 0;
  for (std::size_t i = first; i < t.records.size(); ++i) {
    const obs::FlightRecord& r = t.records[i];
    obs::PostMortemInfo::Event ev;
    ev.kind = obs::flight_kind_name(r.kind);
    ev.name = obs::flight_record_name(r);
    ev.seq = r.seq;
    ev.t_us = r.t_us;
    ev.a = r.a;
    ev.b = r.b;
    ev.c = r.c;
    ev.d = r.d;
    h.events.push_back(std::move(ev));
  }
  log_line("post-mortem shard " + s.spec.str() + " attempt " +
           std::to_string(s.attempt) + ": " + std::to_string(h.records) +
           " flight records, last phase '" + h.last_phase + "'");
  fleet_.post_mortem.harvests.push_back(std::move(h));
}

Expected<obs::FlightTail> Coordinator::end_lease_obs(ShardState& s,
                                                     const char* outcome) {
  const std::uint64_t nowu = now_us();
  elog_->span("lease", s.grant_us, nowu > s.grant_us ? nowu - s.grant_us : 0,
              s.lane, {{"outcome", outcome}});
  Expected<obs::FlightTail> tail = obs::flight_read(s.files.flight);
  // offset_us is the grant time until the first heartbeat lowers it.
  obs::append_flight_lane(*elog_, s.lane, tail, s.offset_us);
  return tail;
}

void Coordinator::publish_fleet_status(bool ended) {
  const double t = now();
  if (!ended && last_status_pub_ >= 0 && t - last_status_pub_ < 0.25) return;
  last_status_pub_ = t;

  FleetStatusMsg m;
  m.mono_us = now_us();
  if (ended) m.ended = fleet_.status_name();
  m.shards = fleet_.shards;
  m.completed_shards = fleet_.completed_shards;
  m.leases_granted = fleet_.leases_granted;
  m.retries = fleet_.retries;
  m.worker_deaths = fleet_.worker_deaths;
  m.stalls = fleet_.stalls;
  m.revocations = fleet_.revocations;
  m.strikes = fleet_.strikes;
  for (const auto& sp : states_) {
    const ShardState& s = *sp;
    FleetStatusMsg::Shard row;
    row.shard = s.spec.str();
    switch (s.phase) {
      case ShardState::Phase::kQueued: row.phase = "queued"; break;
      case ShardState::Phase::kRunning: row.phase = "running"; break;
      case ShardState::Phase::kDone: row.phase = "done"; break;
      case ShardState::Phase::kPoisoned: row.phase = "poisoned"; break;
    }
    row.attempt = s.attempt;
    row.completed = s.phase == ShardState::Phase::kRunning
                        ? std::max(s.last_completed, s.banked)
                        : s.banked;
    row.total = s.total;
    row.events = s.last_events;
    row.updated_us = s.updated_us;
    row.resumed = s.resume_base;
    row.beat_us = s.last_beat_us;
    m.points_total += row.total;
    m.points_completed += row.completed;
    m.rows.push_back(std::move(row));
  }
  try {
    wire_write_file(opt_.dir + "/fleet.status", kMsgFleetStatus,
                    encode_fleet_status(m));
  } catch (const Error&) {
    // Live status only — never worth failing the fleet over.
  }
}

void Coordinator::write_observability_outputs() {
  publish_fleet_status(/*ended=*/true);
  try {
    obs::write_file(opt_.dir + "/fleet.trace.json",
                    [this](std::ostream& os) { elog_->write_chrome_json(os); });
  } catch (const Error&) {
  }
  if (!fleet_.post_mortem.empty()) {
    try {
      obs::write_file(opt_.dir + "/post_mortem.json", [this](std::ostream& os) {
        obs::JsonWriter w(os);
        w.begin_object();
        obs::write_json(w, fleet_.post_mortem);
        w.end_object();
        os << '\n';
      });
    } catch (const Error&) {
    }
  }
}

void Coordinator::kill_all() {
  for (auto& sp : states_) {
    ShardState& s = *sp;
    if (s.phase != ShardState::Phase::kRunning) continue;
    if (s.pid > 0) {
      ::kill(s.pid, SIGKILL);
      int status = 0;
      ::waitpid(s.pid, &status, 0);
    }
    s.pid = -1;
    s.phase = ShardState::Phase::kQueued;
    end_lease_obs(s, "interrupted");
  }
}

FleetReport Coordinator::run() {
  epoch_ = std::chrono::steady_clock::now();
  if (::mkdir(opt_.dir.c_str(), 0755) != 0 && errno != EEXIST)
    raise(ErrorCode::kIo, "coordinator: cannot create directory '" +
                              opt_.dir + "': " + std::strerror(errno));

  states_.clear();
  fleet_ = FleetReport{};
  fleet_.shards = opt_.shards;
  lanes_ = 0;
  last_status_pub_ = -1;
  elog_ = std::make_unique<obs::EventLog>("sweep fleet", epoch_);
  elog_->name_lane(0, "coordinator");
  for (std::uint64_t i = 0; i < opt_.shards; ++i) {
    auto s = std::make_unique<ShardState>();
    s->spec = resilience::ShardSpec{i, opt_.shards};
    states_.push_back(std::move(s));
  }

  std::optional<resilience::ScopedSignalCancel> signals;
  if (opt_.handle_signals) signals.emplace(stop_);
  stop_.set_deadline(resilience::Deadline(opt_.deadline_seconds));

  for (;;) {
    if (stop_.expired()) {
      kill_all();
      fleet_.status = FleetReport::Status::kInterrupted;
      fleet_.elapsed_seconds = now();
      elog_->instant(
          "interrupted", now_us(), 0,
          {{"cause", resilience::cancel_cause_name(stop_.cause())}});
      write_observability_outputs();
      log_line("interrupted (" +
               std::string(resilience::cancel_cause_name(stop_.cause())) +
               ")");
      return fleet_;
    }

    reap();
    check_stalls();
    publish_fleet_status(/*ended=*/false);

    std::uint64_t running = 0;
    std::uint64_t settled = 0;
    for (const auto& sp : states_) {
      if (sp->phase == ShardState::Phase::kRunning) ++running;
      if (sp->phase == ShardState::Phase::kDone ||
          sp->phase == ShardState::Phase::kPoisoned)
        ++settled;
    }
    if (settled == states_.size()) break;

    for (auto& sp : states_) {
      if (running >= opt_.workers) break;
      ShardState& s = *sp;
      if (s.phase != ShardState::Phase::kQueued || s.ready_at > now())
        continue;
      grant(s);
      ++running;
    }

    std::this_thread::sleep_for(kPoll);
  }

  fleet_.elapsed_seconds = now();
  fleet_.shard_elapsed_seconds.assign(states_.size(), 0.0);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ShardState& s = *states_[i];
    fleet_.shard_elapsed_seconds[i] = s.elapsed;
    fleet_.points_total += s.total;
    fleet_.points_completed += s.banked;
    if (s.phase == ShardState::Phase::kPoisoned)
      ++fleet_.degraded.poisoned_shards;
  }
  fleet_.degraded.retries = fleet_.retries;
  fleet_.degraded.worker_deaths = fleet_.worker_deaths;
  fleet_.status = fleet_.degraded.poisoned_shards > 0
                      ? FleetReport::Status::kDegraded
                      : FleetReport::Status::kCompleted;

  elog_->instant(
      "merge", now_us(), 0,
      {{"completed_shards", std::to_string(fleet_.completed_shards)}});
  write_observability_outputs();
  write_merged_reports();
  log_line("fleet " +
           std::string(fleet_.ok() ? "completed" : "degraded") + ": " +
           std::to_string(fleet_.completed_shards) + "/" +
           std::to_string(fleet_.shards) + " shards, " +
           std::to_string(fleet_.retries) + " retries, " +
           std::to_string(fleet_.worker_deaths) + " deaths, " +
           std::to_string(fleet_.stalls) + " stalls");
  return fleet_;
}

void Coordinator::write_merged_reports() {
  if (opt_.report_path.empty() && opt_.report_csv_path.empty()) return;
  if (fleet_.completed_shards == 0) {
    log_line("no completed shard: skipping merged report");
    return;
  }

  // Fold every banked aggregate — (shard, attempt) order, all merges
  // commutative — into fresh local instances, exactly reconstructing
  // what one process running the whole grid would have published.
  obs::MetricsRegistry merged;
  obs::AttributionAggregate attribution;
  std::optional<obs::DriftDetector> drift;
  obs::SelectorLog selector;
  // Every message carries the run identity, the same in all of them (all
  // workers run one command); a completed shard banked at least one.
  const obs::RunInfo* info = nullptr;
  for (const auto& sp : states_) {
    for (const AggregatesMsg& a : sp->banked_aggs) {
      if (info == nullptr) info = &a.info;
      for (const obs::MetricsRegistry::Entry& e : a.metrics) merged.merge(e);
      attribution.merge(a.attribution);
      if (a.has_drift) {
        if (!drift)
          drift.emplace(obs::DriftConfig{a.drift.band});
        drift->merge(a.drift);
      }
      selector.merge(a.selector);
    }
  }
  // The per-run() progress counters are synthesized fleet-wide (workers
  // keep theirs out of the aggregates): resumed is 0 because a fleet
  // run, like a fresh serial run, computed every point from scratch —
  // attempt-level resumes are an execution detail.
  merged.counter("sweep.points_total").add(fleet_.points_total);
  merged.counter("sweep.points_completed").add(fleet_.points_completed);
  merged.counter("sweep.points_resumed").add(0);

  const obs::DegradedInfo* degraded =
      fleet_.degraded.poisoned_shards > 0 ? &fleet_.degraded : nullptr;
  const obs::DriftDetector* drift_ptr = drift ? &*drift : nullptr;

  if (!opt_.report_path.empty())
    obs::write_file(opt_.report_path, [&](std::ostream& os) {
      obs::write_report_json(os, *info, merged, nullptr, &attribution,
                             drift_ptr, &selector, degraded);
    });
  if (!opt_.report_csv_path.empty())
    obs::write_file(opt_.report_csv_path, [&](std::ostream& os) {
      obs::write_report_csv(os, *info, merged, nullptr, &attribution,
                            drift_ptr, &selector, degraded);
    });
}

}  // namespace dxbsp::svc
