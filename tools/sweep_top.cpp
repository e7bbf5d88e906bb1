// sweep_top: live terminal view of a running fleet
// (docs/observability.md §fleet).
//
//   ./sweep_top --dir=DIR [--once] [--interval=SEC]
//
// Reads the coordinator's throttled `fleet.status` message and every
// shard's latest `shard-I.telem` telemetry snapshot from the protocol
// directory — the same atomically-renamed wire files the protocol
// itself uses, so a reader never races a writer — and renders one frame
// per interval: fleet counters, a per-shard progress table with
// simulated events/sec, and a finish estimate.
//
// The ETA comes from the BSF master-worker cost model the scaling bench
// gates on (Sokolinsky, arXiv:1704.05816): T(K) = S·o + ceil(S/K)·w for
// S remaining points, K running workers and per-point work time w.
// sweep_top fits w from the running attempts' own telemetry (attempt
// wall clock / points computed this attempt, which folds the per-lease
// overhead o into the measurement) and reports ceil(S/K)·w. A fleet
// with no running shard yet has no fit and reports no ETA — an honest
// "warming up", not a guess.
//
// --once renders a single frame and exits 0 (the CI smoke path);
// otherwise frames repeat every --interval seconds (default 1) until
// the fleet completes. Exit codes: 0 on a rendered fleet (done or not);
// 74 (EX_IOERR) when DIR has no fleet.status (fleet not running, or
// observability off).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "svc/payload.hpp"
#include "svc/wire.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace dxbsp;

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string fmt_rate(double per_sec) {
  if (per_sec >= 1e6) return fmt1(per_sec / 1e6) + "M";
  if (per_sec >= 1e3) return fmt1(per_sec / 1e3) + "k";
  return fmt1(per_sec);
}

struct Frame {
  svc::FleetStatusMsg status;
  std::vector<svc::TelemetryMsg> telem;  ///< by shard index; empty shard = none
  bool has_status = false;
};

/// One snapshot of the protocol directory. Only a missing/unreadable
/// fleet.status is reported (has_status = false); per-shard telemetry is
/// best-effort — a shard between attempts simply has no row detail.
Frame sample(const std::string& dir) {
  Frame f;
  auto status =
      svc::wire_read_file(dir + "/fleet.status", svc::kMsgFleetStatus);
  if (!status.ok()) return f;
  auto decoded = svc::decode_fleet_status(status.value());
  if (!decoded.ok()) return f;
  f.status = std::move(decoded).value();
  f.has_status = true;
  f.telem.resize(f.status.rows.size());
  for (std::size_t i = 0; i < f.status.rows.size(); ++i) {
    auto msg = svc::wire_read_file(
        dir + "/shard-" + std::to_string(i) + ".telem", svc::kMsgTelemetry);
    if (!msg.ok()) continue;
    auto t = svc::decode_telemetry(msg.value());
    if (t.ok()) f.telem[i] = std::move(t).value();
  }
  return f;
}

void render(const Frame& f) {
  const auto& st = f.status;
  std::cout << "fleet: " << st.completed_shards << "/" << st.shards
            << " shards, " << st.points_completed << "/" << st.points_total
            << " points | leases=" << st.leases_granted
            << " retries=" << st.retries << " deaths=" << st.worker_deaths
            << " stalls=" << st.stalls << " revocations=" << st.revocations
            << "\n";

  // BSF model fit: w from running attempts' telemetry, K = their count.
  double w_sum = 0;
  std::uint64_t w_points = 0, running = 0;
  for (std::size_t i = 0; i < st.rows.size(); ++i) {
    if (st.rows[i].phase != "running") continue;
    ++running;
    if (i >= f.telem.size()) continue;
    const auto& t = f.telem[i];
    const std::uint64_t computed =
        t.completed > t.resumed ? t.completed - t.resumed : 0;
    if (computed == 0 || t.mono_us == 0) continue;
    w_sum += static_cast<double>(t.mono_us) / 1e6;
    w_points += computed;
  }
  const std::uint64_t remaining =
      st.points_total > st.points_completed
          ? st.points_total - st.points_completed
          : 0;
  if (st.points_total == 0) {
    // First status lands before any lease is granted; the grid totals
    // are only known once shards start reporting.
    std::cout << "eta: warming up\n";
  } else if (remaining == 0) {
    std::cout << "eta: done\n";
  } else if (w_points == 0 || running == 0) {
    std::cout << "eta: warming up\n";
  } else {
    const double w = w_sum / static_cast<double>(w_points);
    const double eta = std::ceil(static_cast<double>(remaining) /
                                 static_cast<double>(running)) *
                       w;
    std::cout << "eta: " << fmt1(eta) << "s (T(K)=ceil(S/K)*w, S="
              << remaining << " K=" << running << " w=" << fmt1(w * 1e3)
              << "ms)\n";
  }

  util::Table table(
      {"shard", "phase", "attempt", "done", "%", "events", "ev/s", "age"});
  for (std::size_t i = 0; i < st.rows.size(); ++i) {
    const auto& r = st.rows[i];
    const double pct = r.total == 0 ? 0.0
                                    : 100.0 * static_cast<double>(r.completed) /
                                          static_cast<double>(r.total);
    std::string rate = "-";
    if (i < f.telem.size() && f.telem[i].mono_us > 0 && r.phase == "running")
      rate = fmt_rate(static_cast<double>(f.telem[i].events) /
                      (static_cast<double>(f.telem[i].mono_us) / 1e6));
    const std::uint64_t age_us =
        st.mono_us > r.updated_us ? st.mono_us - r.updated_us : 0;
    table.add_row_strings(
        {r.shard, r.phase, std::to_string(r.attempt),
         std::to_string(r.completed) + "/" + std::to_string(r.total),
         fmt1(pct), std::to_string(r.events), rate,
         r.updated_us == 0 ? "-" : fmt1(static_cast<double>(age_us) / 1e6) +
                                       "s"});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dxbsp;
  try {
    const util::Cli cli(argc, argv);
    const std::string dir = cli.get("dir", "svc-run");
    const bool once = cli.has("once");
    const double interval = cli.get_double("interval", 1.0);

    for (;;) {
      const Frame f = sample(dir);
      if (!f.has_status) {
        if (once)
          raise(ErrorCode::kIo,
                "no readable fleet.status in '" + dir +
                    "' (fleet not running, or started without "
                    "observability)");
        std::cout << "waiting for " << dir << "/fleet.status ...\n";
      } else {
        if (!once) std::cout << "\x1b[H\x1b[2J";  // home + clear
        render(f);
        if (f.status.shards > 0 &&
            f.status.completed_shards == f.status.shards) {
          std::cout << "fleet complete\n";
          return 0;
        }
      }
      if (once) return 0;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          interval > 0.05 ? interval : 0.05));
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  }
}
