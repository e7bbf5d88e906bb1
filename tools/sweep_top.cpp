// sweep_top: live terminal view of a running fleet
// (docs/observability.md §fleet).
//
//   ./sweep_top --dir=DIR [--once] [--interval=SEC]
//
// Reads the coordinator's throttled `fleet.status` message from the
// protocol directory — an atomically-renamed wire file, so a reader
// never races the writer — and renders one frame per interval: fleet
// counters, a per-shard progress table with simulated events/sec, and a
// finish estimate. The coordinator builds each shard's row from the
// heartbeats it already reads, so this is the only file sweep_top opens.
//
// The ETA comes from the BSF master-worker cost model the scaling bench
// gates on (Sokolinsky, arXiv:1704.05816): T(K) = S·o + ceil(S/K)·w for
// S remaining points, K running workers and per-point work time w.
// sweep_top fits w from the running attempts' last heartbeats (attempt
// wall clock `beat_us` / points computed this attempt, completed −
// resumed, which folds the per-lease overhead o into the measurement)
// and reports ceil(S/K)·w. A fleet with no running shard yet has no fit
// and reports no ETA — an honest "warming up", not a guess.
//
// --once renders a single frame and exits 0 (the CI smoke path);
// otherwise frames repeat every --interval seconds (default 1) until
// the fleet completes. Every running fleet has a fleet.status — the
// coordinator publishes it on its first poll, before any grant — so a
// DIR without one is an error in both modes, not something to wait for.
// Exit codes: 0 on a rendered fleet (done or not); 64 (EX_USAGE) for any
// flag but --dir/--once/--interval, or any positional argument; 74
// (EX_IOERR) when DIR has no readable fleet.status.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

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

/// The fleet's live status, or nothing when DIR has no readable
/// fleet.status.
std::optional<svc::FleetStatusMsg> sample(const std::string& dir) {
  auto status =
      svc::wire_read_file(dir + "/fleet.status", svc::kMsgFleetStatus);
  if (!status.ok()) return std::nullopt;
  auto decoded = svc::decode_fleet_status(status.value());
  if (!decoded.ok()) return std::nullopt;
  return std::move(decoded).value();
}

void render(const svc::FleetStatusMsg& st) {
  std::cout << "fleet: " << st.completed_shards << "/" << st.shards
            << " shards, " << st.points_completed << "/" << st.points_total
            << " points | leases=" << st.leases_granted
            << " retries=" << st.retries << " deaths=" << st.worker_deaths
            << " stalls=" << st.stalls << " revocations=" << st.revocations
            << "\n";

  // BSF model fit: w from running attempts' heartbeats, K = their count.
  double w_sum = 0;
  std::uint64_t w_points = 0, running = 0;
  for (const auto& r : st.rows) {
    if (r.phase != "running") continue;
    ++running;
    const std::uint64_t computed =
        r.completed > r.resumed ? r.completed - r.resumed : 0;
    if (computed == 0 || r.beat_us == 0) continue;
    w_sum += static_cast<double>(r.beat_us) / 1e6;
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
  for (const auto& r : st.rows) {
    const double pct = r.total == 0 ? 0.0
                                    : 100.0 * static_cast<double>(r.completed) /
                                          static_cast<double>(r.total);
    std::string rate = "-";
    if (r.beat_us > 0 && r.phase == "running")
      rate = fmt_rate(static_cast<double>(r.events) /
                      (static_cast<double>(r.beat_us) / 1e6));
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
    for (const auto& [name, value] : cli.flags())
      if (name != "dir" && name != "once" && name != "interval")
        raise(ErrorCode::kParse, "sweep_top: unknown flag --" + name);
    if (!cli.positional().empty())
      raise(ErrorCode::kParse,
            "sweep_top: unexpected argument '" + cli.positional().front() +
                "'");
    const std::string dir = cli.get("dir", "svc-run");
    const bool once = cli.has("once");
    const double interval = cli.get_double("interval", 1.0);

    for (;;) {
      const std::optional<svc::FleetStatusMsg> st = sample(dir);
      if (!st)
        raise(ErrorCode::kIo, "no readable fleet.status in '" + dir +
                                  "' (fleet not running)");
      if (!once) std::cout << "\x1b[H\x1b[2J";  // home + clear
      render(*st);
      if (st->shards > 0 && st->completed_shards == st->shards) {
        std::cout << "fleet complete\n";
        return 0;
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
