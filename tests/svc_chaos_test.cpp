// Deterministic chaos harness for the sweep coordinator (the ISSUE's
// acceptance gate): real multi-process fleets over the fig4 bench
// binary, with seeded faults injected at every protocol phase — lease
// grant, mid-shard, result publication — plus wedges and fleet
// deadlines. The invariant under test: whenever no shard ends up
// poisoned, the merged run report is byte-identical to an undisturbed
// run's; a permanently-failing shard degrades the fleet (exit 69,
// poisoned range recorded) instead of hanging it. Fleet observability is
// always on, and its host-time outputs live in the fleet directory, so
// the byte-identity holds for every fleet here.
//
// Chaos is executed by the workers themselves at exact protocol states
// (svc/chaos.hpp), so every scenario is reproducible — no sleeps, no
// racing the scheduler to land a kill.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json_read.hpp"
#include "obs/trace.hpp"
#include "svc/coordinator.hpp"
#include "svc/payload.hpp"
#include "svc/wire.hpp"
#include "test_tmp.hpp"

namespace {

using namespace dxbsp;

// Injected by CMake: the real bench binary the fleets run.
const char* worker_bin() { return DXBSP_SVC_WORKER_BIN; }

std::string tmp_dir(const std::string& name) {
  return testing_tmp::path("dxbsp_chaos_" + name);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

svc::CoordinatorOptions fleet_options(const std::string& name) {
  svc::CoordinatorOptions opt;
  opt.worker_argv = {worker_bin(), "--n=4096", "--seed=1995"};
  opt.dir = tmp_dir(name);
  opt.workers = 2;
  opt.shards = 4;
  opt.backoff_base_seconds = 0.01;  // fast requeues: this is a test
  opt.backoff_cap_seconds = 0.05;
  opt.handle_signals = false;  // never touch gtest's signal handlers
  opt.report_path = tmp_dir(name) + ".report.json";
  return opt;
}

svc::FleetReport run_fleet(svc::CoordinatorOptions opt) {
  svc::Coordinator coordinator(std::move(opt));
  return coordinator.run();
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// The final fleet.status the coordinator leaves in `name`'s directory:
// the fleet's lifecycle counters and one row per shard.
svc::FleetStatusMsg final_status(const std::string& name) {
  const auto msg = svc::wire_read_file(tmp_dir(name) + "/fleet.status",
                                       svc::kMsgFleetStatus);
  EXPECT_TRUE(msg.ok()) << "no readable fleet.status for " << name;
  if (!msg.ok()) return {};
  auto status = svc::decode_fleet_status(msg.value());
  EXPECT_TRUE(status.ok());
  return status.ok() ? std::move(status).value() : svc::FleetStatusMsg{};
}

std::uint64_t rows_in_phase(const svc::FleetStatusMsg& st,
                            const std::string& phase) {
  std::uint64_t n = 0;
  for (const auto& r : st.rows)
    if (r.phase == phase) ++n;
  return n;
}

// The undisturbed fleet's merged report — the byte-identity baseline
// for every chaos scenario. Computed once.
const std::string& baseline_report() {
  static const std::string bytes = [] {
    auto opt = fleet_options("baseline");
    const auto fleet = run_fleet(std::move(opt));
    EXPECT_EQ(fleet.status, svc::FleetReport::Status::kCompleted);
    EXPECT_EQ(fleet.exit_code(), 0);
    EXPECT_EQ(fleet.completed_shards, 4u);
    EXPECT_EQ(fleet.retries, 0u);
    EXPECT_EQ(fleet.worker_deaths, 0u);
    return slurp(tmp_dir("baseline") + ".report.json");
  }();
  return bytes;
}

void expect_identical_to_baseline(const std::string& name) {
  const std::string report = slurp(tmp_dir(name) + ".report.json");
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report, baseline_report())
      << "merged report diverged from the undisturbed run";
}

TEST(SvcChaos, SerialRunMatchesTheFleetByteForByte) {
  // The end-to-end promise: the fleet's merged report is the SAME FILE
  // a plain serial run of the bench would have written.
  const std::string serial = tmp_dir("serial") + ".report.json";
  const std::string cmd = std::string(worker_bin()) +
                          " --n=4096 --seed=1995 --report=" + serial +
                          " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_EQ(slurp(serial), baseline_report());
}

TEST(SvcChaos, KillsAtEveryProtocolPhaseRecoverByteIdentically) {
  auto opt = fleet_options("phases");
  opt.report_csv_path = tmp_dir("phases") + ".report.csv";
  opt.chaos =
      "shard=1,attempt=0,phase=lease,action=kill;"
      "shard=2,attempt=0,phase=point:1,action=kill;"
      "shard=0,attempt=0,phase=result,action=kill";
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kCompleted);
  EXPECT_EQ(fleet.completed_shards, 4u);
  EXPECT_EQ(fleet.worker_deaths, 3u);
  EXPECT_EQ(fleet.retries, 3u);
  EXPECT_EQ(fleet.degraded.poisoned_shards, 0u);
  expect_identical_to_baseline("phases");

  // CSV emission goes through the same merge: also byte-stable, so
  // compare two chaos runs' CSVs via a second undisturbed fleet.
  auto base = fleet_options("phases_base");
  base.report_csv_path = tmp_dir("phases_base") + ".report.csv";
  const auto undisturbed = run_fleet(std::move(base));
  EXPECT_EQ(undisturbed.status, svc::FleetReport::Status::kCompleted);
  EXPECT_EQ(slurp(tmp_dir("phases") + ".report.csv"),
            slurp(tmp_dir("phases_base") + ".report.csv"));
}

TEST(SvcChaos, NonZeroExitsStrikeAndCleanTempfailDoesNotCountAsDeath) {
  auto opt = fleet_options("exits");
  opt.chaos =
      "shard=3,attempt=0,phase=lease,action=exit:75;"
      "shard=1,attempt=0,phase=point:1,action=exit:70";
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kCompleted);
  EXPECT_EQ(fleet.retries, 2u);
  EXPECT_EQ(fleet.worker_deaths, 1u)
      << "exit 75 is a clean self-interruption, not a death";
  expect_identical_to_baseline("exits");
}

TEST(SvcChaos, WedgedWorkerIsStalledRevokedAndRecovered) {
  auto opt = fleet_options("hang");
  opt.heartbeat_interval_seconds = 0.02;
  opt.heartbeat_timeout_seconds = 0.4;
  // Shard 2 wedges mid-shard, after beating; shard 0 wedges at the lease,
  // before its first heartbeat — the stall clock starting at the grant
  // must revoke it all the same.
  opt.chaos =
      "shard=2,attempt=0,phase=point:1,action=hang;"
      "shard=0,attempt=0,phase=lease,action=hang";
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kCompleted);
  EXPECT_GE(fleet.stalls, 2u);
  EXPECT_GE(fleet.retries, 2u);
  expect_identical_to_baseline("hang");
}

TEST(SvcChaos, ProgressEveryAttemptConvergesDespitePermanentChaos) {
  // The strike counter resets whenever an attempt banks new points, so
  // a worker that dies after EVERY point (attempt unpinned = fires on
  // all attempts) still converges — one banked point per lease.
  auto opt = fleet_options("converge");
  opt.max_strikes = 2;
  opt.chaos = "shard=0,phase=point:1,action=kill";
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kCompleted);
  EXPECT_EQ(fleet.degraded.poisoned_shards, 0u);
  EXPECT_GE(fleet.retries, 2u);
  expect_identical_to_baseline("converge");
}

TEST(SvcChaos, PermanentNoProgressFailurePoisonsTheShardNotTheFleet) {
  auto opt = fleet_options("poison");
  opt.max_strikes = 2;
  opt.chaos = "shard=1,phase=lease,action=kill";  // every attempt
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kDegraded);
  EXPECT_EQ(fleet.exit_code(), 69) << "EX_UNAVAILABLE: completed degraded";
  EXPECT_EQ(fleet.completed_shards, 3u);
  ASSERT_EQ(fleet.degraded.poisoned_shards, 1u);
  const auto& poisoned = fleet.degraded.shards[0];
  EXPECT_EQ(poisoned.strikes, 2u);
  EXPECT_FALSE(poisoned.last_error.empty());
  EXPECT_NE(poisoned.repro.find("--shard=1/4"), std::string::npos)
      << "repro must name the poisoned key range: " << poisoned.repro;

  // The healthy shards' partial results still merge into a report, now
  // carrying the structured degraded section.
  const std::string report = slurp(tmp_dir("poison") + ".report.json");
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report, baseline_report());
  EXPECT_NE(report.find("\"degraded\""), std::string::npos);
  EXPECT_NE(report.find("poisoned"), std::string::npos);

  // The final fleet.status keeps the quarantine and its strikes.
  const svc::FleetStatusMsg st = final_status("poison");
  EXPECT_EQ(rows_in_phase(st, "poisoned"), 1u);
  EXPECT_GE(st.strikes, 2u);
}

TEST(SvcChaos, FleetDeadlineInterruptsAWedgedFleetInBoundedTime) {
  auto opt = fleet_options("deadline");
  opt.heartbeat_timeout_seconds = 30;  // stall detection out of the way
  opt.deadline_seconds = 0.5;
  opt.chaos = "shard=0,phase=lease,action=hang";
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kInterrupted);
  EXPECT_EQ(fleet.exit_code(), 75);
}

// Fleet observability (docs/observability.md §fleet). Its host-time
// outputs — flight rings, traces, fleet.status, post_mortem.json — live
// in the fleet directory, so the merged report stays the baseline's
// bytes however many workers died.
TEST(SvcChaos, ObservabilityKillHarvestsFlightTailIntoPostMortem) {
  // SIGKILL a worker mid-shard: the fleet's post_mortem.json must name
  // the protocol phase it died in and carry trace events from its
  // crash-safe flight ring, while the report stays the baseline's bytes.
  auto opt = fleet_options("obskill");
  opt.chaos = "shard=1,attempt=0,phase=point:1,action=kill";
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kCompleted);
  EXPECT_EQ(fleet.worker_deaths, 1u);

  ASSERT_EQ(fleet.post_mortem.harvests.size(), 1u);
  const auto& h = fleet.post_mortem.harvests[0];
  EXPECT_EQ(h.shard, "1/4");
  EXPECT_EQ(h.attempt, 0u);
  EXPECT_EQ(h.last_phase, "point") << "the kill fired INSIDE point 1";
  EXPECT_GE(h.last_point, 1u);
  EXPECT_GE(h.records, 1u);
  std::uint64_t trace_events = 0;
  for (const auto& e : h.events)
    if (e.kind == "trace") ++trace_events;
  if constexpr (obs::kTraceCompiledIn) {
    EXPECT_GE(trace_events, 1u)
        << "the flight tail must carry the dead attempt's trace records";
  }

  const std::string dir = tmp_dir("obskill");
  const auto pm = obs::JsonValue::parse(slurp(dir + "/post_mortem.json"),
                                        "post_mortem.json");
  ASSERT_TRUE(pm.ok());
  const obs::JsonValue* deaths = pm.value().find("deaths");
  ASSERT_NE(deaths, nullptr);
  ASSERT_EQ(deaths->items().size(), 1u);
  const obs::JsonValue& death = deaths->items()[0];
  EXPECT_EQ(death.find("shard")->as_string(), "1/4");
  EXPECT_EQ(death.find("last_phase")->as_string(), "point");
  std::uint64_t trace_records = 0;
  for (const obs::JsonValue& e : death.find("events")->items())
    if (e.find("kind")->as_string() == "trace") ++trace_records;
  if constexpr (obs::kTraceCompiledIn) {
    EXPECT_GE(trace_records, 1u);
  }

  const std::string report = slurp(tmp_dir("obskill") + ".report.json");
  EXPECT_EQ(report.find("\"post_mortem\""), std::string::npos);
  EXPECT_EQ(report, baseline_report())
      << "a death must not change the merged report";

  // The artifacts flight_reader / trace_stitch consume are on disk.
  EXPECT_TRUE(file_exists(dir + "/stitch.json"));
  EXPECT_TRUE(file_exists(dir + "/coordinator.trace.json"));
  EXPECT_TRUE(file_exists(dir + "/shard-1.attempt-0.flight"));

  // sweep_top's one input: the retried shard's row carries the point the
  // dead attempt banked as the current attempt's resume base.
  const svc::FleetStatusMsg st = final_status("obskill");
  ASSERT_EQ(st.rows.size(), 4u);
  EXPECT_EQ(st.rows[0].resumed, 0u);
  EXPECT_EQ(st.rows[1].attempt, 1u);
  EXPECT_EQ(st.rows[1].resumed, 1u);
}

TEST(SvcChaos, ObservabilityOnHealthyFleetStripsToTheBaselineReport) {
  auto opt = fleet_options("obson");
  const auto fleet = run_fleet(std::move(opt));
  EXPECT_EQ(fleet.status, svc::FleetReport::Status::kCompleted);
  EXPECT_EQ(fleet.worker_deaths, 0u);
  EXPECT_TRUE(fleet.post_mortem.empty());

  const std::string report = slurp(tmp_dir("obson") + ".report.json");
  EXPECT_EQ(report, baseline_report());

  const std::string dir = tmp_dir("obson");
  EXPECT_TRUE(file_exists(dir + "/stitch.json"));
  EXPECT_FALSE(file_exists(dir + "/post_mortem.json"))
      << "no deaths, no post_mortem.json";

  // The lifecycle counters live in the final fleet.status.
  const svc::FleetStatusMsg st = final_status("obson");
  EXPECT_GE(st.leases_granted, 4u);
  EXPECT_EQ(st.strikes, 0u);
  EXPECT_EQ(rows_in_phase(st, "done"), 4u);
}

}  // namespace
