// Fault-tolerant multi-process sweep driver (docs/resilience.md §fleet
// mode): shards one bench's sweep grid across worker subprocesses,
// survives their crashes and wedges, and merges the
// per-shard partial results into one run report that — whenever no shard
// ends up poisoned — is byte-identical to the serial run's.
//
//   sweep_coordinator [flags] -- <bench binary> [workload flags...]
//
// Everything after `--` is the worker command, exactly as the serial run
// would be invoked; the coordinator appends --svc-lease=FILE per grant.
//
// Flags:
//   --dir=PATH            protocol working directory (default svc-run)
//   --workers=W           concurrent worker processes (default 2)
//   --shards=S            grid partitions (default 2*W)
//   --hb-timeout=SEC      stall window: a lease whose worker sends no new
//                         heartbeat for SEC is revoked (default 5); the
//                         coordinator measures it on its own clock, as the
//                         `age` column sweep_top shows. Workers beat every
//                         min(0.05, SEC/8) seconds
//   --deadline=SEC        whole-fleet budget (default none)
//   --max-strikes=N       no-progress failures before poisoning (default 3)
//   --backoff=SEC         requeue backoff base, doubling per strike up to
//                         20x itself (default 0.1)
//   --chaos=SPEC          deterministic fault injection (svc/chaos.hpp)
//   --report=PATH         merged JSON run report
//   --report-csv=PATH     merged CSV run report
//   --quiet               suppress per-lease progress lines
//
// Every file of an attempt (lease, heartbeat, aggregates, checkpoint,
// flight ring, log) lives in --dir under the name svc::attempt_files
// gives it; a worker's last aggregates message is its outcome.
//
// Fleet observability (docs/observability.md §fleet) is always on and
// writes only into --dir: per-attempt flight rings, the live
// fleet.status (its final copy holds the lease/retry/death/stall
// counters), the fleet timeline fleet.trace.json (one lane per attempt,
// drawn from its flight ring) and, when an attempt died,
// post_mortem.json. The merged report carries none of it.
//
// Exit codes: 0 all shards completed; 69 (EX_UNAVAILABLE) completed
// degraded — poisoned shards recorded in the report's "degraded"
// section; 75 (EX_TEMPFAIL) interrupted (signal/deadline); 64
// (EX_USAGE) for a flag before `--` outside the list above, or a
// positional argument there.

#include <iostream>
#include <string>
#include <vector>

#include "svc/coordinator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  try {
    int split = argc;
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--") {
        split = i;
        break;
      }
    const util::Cli cli(split, argv);

    svc::CoordinatorOptions opt;
    opt.dir = cli.get("dir", "svc-run");
    opt.workers = cli.get_uint("workers", 2);
    opt.shards = cli.get_uint("shards", 0);
    opt.heartbeat_timeout_seconds = cli.get_double("hb-timeout", 5.0);
    opt.deadline_seconds = cli.get_double("deadline", 0.0);
    opt.max_strikes = cli.get_uint("max-strikes", 3);
    opt.backoff_base_seconds = cli.get_double("backoff", 0.1);
    opt.chaos = cli.get("chaos", "");
    opt.report_path = cli.get("report", "");
    opt.report_csv_path = cli.get("report-csv", "");
    if (!cli.has("quiet")) opt.log = &std::cerr;
    cli.reject_unread();  // the worker command follows --
    for (int i = split + 1; i < argc; ++i) opt.worker_argv.push_back(argv[i]);
    if (opt.worker_argv.empty()) {
      std::cerr << "usage: sweep_coordinator [flags] -- <bench binary> "
                   "[workload flags...]\n";
      return exit_code(ErrorCode::kConfig);
    }

    svc::Coordinator coordinator(std::move(opt));
    const svc::FleetReport fleet = coordinator.run();

    std::cout << "FLEET " << fleet.status_name() << " shards="
              << fleet.completed_shards << "/" << fleet.shards
              << " points=" << fleet.points_completed << "/"
              << fleet.points_total << " retries=" << fleet.retries
              << " deaths=" << fleet.worker_deaths
              << " stalls=" << fleet.stalls
              << " poisoned=" << fleet.degraded.poisoned_shards << "\n";
    for (const auto& s : fleet.degraded.shards)
      std::cout << "POISONED shard=" << s.shard << " strikes=" << s.strikes
                << " completed=" << s.completed << "/" << s.total
                << " last_error=\"" << s.last_error << "\" repro: " << s.repro
                << "\n";
    return fleet.exit_code();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  }
}
