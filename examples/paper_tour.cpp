// paper_tour: the whole paper in one run.
//
// Executes a miniature version of every headline claim — model validity,
// the contention knee, expansion beyond d, safe random mappings, the
// QRQW emulation regimes, and QRQW-beats-EREW — printing one PASS/FAIL
// verdict per claim. A smoke test of the reproduction and a guided tour
// of the library's API surface in ~150 lines. Exits nonzero if any
// claim fails.
//
//   ./paper_tour [--n=131072]

#include <iostream>

#include "algos/random_permutation.hpp"
#include "algos/vm.hpp"
#include "core/balls_bins.hpp"
#include "core/predictor.hpp"
#include "qrqw/emulation.hpp"
#include "qrqw/program.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "workload/patterns.hpp"

namespace {
int failures = 0;
void verdict(const char* claim, bool ok, const std::string& detail) {
  std::cout << (ok ? "  PASS  " : "  FAIL  ") << claim << "  [" << detail
            << "]\n";
  if (!ok) ++failures;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace dxbsp;
  const util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 1 << 17);
  const std::uint64_t seed = cli.get_int("seed", 1995);
  const auto cfg = sim::MachineConfig::cray_j90();

  std::cout << "=== Accounting for Memory Bank Contention and Delay —\n"
               "    the paper's claims, re-run on " << cfg.name
            << " (n = " << n << ") ===\n\n";

  // Claim 1: the (d,x)-BSP predicts contended scatters; BSP does not.
  {
    sim::Machine machine(cfg);
    const auto addrs = workload::k_hot(n, n / 4, 1ULL << 30, seed);
    const auto meas = machine.scatter(addrs);
    const auto pred = core::predict(meas, cfg);
    const double dx = static_cast<double>(pred.dxbsp_mapped) / meas.cycles;
    const double bsp = static_cast<double>(pred.bsp) / meas.cycles;
    verdict("(d,x)-BSP tracks the simulator at high contention",
            dx > 0.9 && dx < 1.1,
            "dxbsp/meas = " + std::to_string(dx));
    verdict("bank-blind BSP badly underpredicts the same run", bsp < 0.2,
            "bsp/meas = " + std::to_string(bsp));
  }

  // Claim 2: the knee sits at k* = g n/(p d).
  {
    sim::Machine machine(cfg);
    const auto m = core::DxBspParams::from_config(cfg);
    const double knee = core::contention_knee(m, n);
    const auto below = machine.scatter(workload::k_hot(
        n, static_cast<std::uint64_t>(knee / 4), 1ULL << 30, seed));
    const auto above = machine.scatter(workload::k_hot(
        n, static_cast<std::uint64_t>(knee * 4), 1ULL << 30, seed));
    verdict("contention knee at g*n/(p*d)",
            above.cycles > 3 * below.cycles &&
                below.cycles < static_cast<std::uint64_t>(
                                   1.2 * (m.g * n / m.p + 2.0 * m.L)),
            "T(k*/4) = " + std::to_string(below.cycles) + ", T(4k*) = " +
                std::to_string(above.cycles));
  }

  // Claim 3: banks keep helping beyond x = d.
  {
    const auto addrs = workload::uniform_random(n / 4, 1ULL << 30, seed);
    auto at = [&](std::uint64_t x) {
      auto c = cfg;
      c.expansion = x;
      sim::Machine m(c);
      return m.scatter(addrs).cycles;
    };
    const auto t_d = at(cfg.bank_delay);
    const auto t_4d = at(4 * cfg.bank_delay);
    verdict("expansion beyond x = d still speeds random patterns",
            t_4d < t_d, std::to_string(t_d) + " -> " + std::to_string(t_4d) +
                            " cycles");
  }

  // Claim 4: pseudo-random mapping fixes strides without hurting the
  // worst case by more than a few percent.
  {
    auto c = cfg;
    sim::Machine inter(c);
    util::Xoshiro256 rng(seed);
    sim::Machine hashed(c, std::make_shared<mem::HashedMapping>(
                               c.banks(), mem::HashDegree::kCubic, rng));
    const auto strided = workload::strided(n / 2, c.banks());
    const auto distinct = workload::distinct_random(n / 2, 1ULL << 34, seed);
    const double stride_fix =
        static_cast<double>(inter.scatter(strided).cycles) /
        static_cast<double>(hashed.scatter(strided).cycles);
    const double worst_penalty =
        static_cast<double>(hashed.scatter(distinct).cycles) /
        static_cast<double>(inter.scatter(distinct).cycles);
    verdict("hashing repairs stride pathologies", stride_fix > 10.0,
            "interleaved/hashed = " + std::to_string(stride_fix));
    verdict("hashing's worst-case penalty stays small", worst_penalty < 1.1,
            "hashed/interleaved = " + std::to_string(worst_penalty));
  }

  // Claim 5: QRQW emulation is work-preserving for x >= d and pays d/x
  // below (Thm 5.1/5.2).
  {
    const auto step = qrqw::synthetic_step(n / 4, 16, 1ULL << 30, n / 4, seed);
    auto slowdown_at = [&](std::uint64_t x) {
      auto c = cfg;
      c.expansion = x;
      qrqw::EmulationEngine eng(c, seed);
      const auto r = eng.emulate_step(step);
      return static_cast<double>(r.sim_cycles) /
             (static_cast<double>(step.ops()) / c.processors);
    };
    const double wide = slowdown_at(4 * cfg.bank_delay);
    const double narrow = slowdown_at(cfg.bank_delay / 7);  // x = 2
    verdict("emulation slowdown ~ 1 per op when x >> d", wide < 1.6,
            "cycles/op = " + std::to_string(wide));
    verdict("emulation slowdown ~ d/x when x << d",
            narrow > 0.6 * cfg.bank_delay / 2.0,
            "cycles/op = " + std::to_string(narrow));
  }

  // Claim 6: well-accounted contention beats contention avoidance.
  {
    algos::Vm vm_q(cfg);
    const auto pq = algos::random_permutation_qrqw(vm_q, n / 4, seed);
    algos::Vm vm_e(cfg);
    const auto pe = algos::random_permutation_erew(vm_e, n / 4, seed);
    verdict("QRQW random permutation beats the EREW sort route",
            algos::is_permutation_of_iota(pq) &&
                algos::is_permutation_of_iota(pe) &&
                vm_q.cycles() < vm_e.cycles(),
            "qrqw " + std::to_string(vm_q.cycles()) + " vs erew " +
                std::to_string(vm_e.cycles()) + " cycles");
  }

  std::cout << "\n" << (failures == 0 ? "All claims reproduced."
                                      : "SOME CLAIMS FAILED.")
            << "\n";
  return failures == 0 ? 0 : 1;
}
