#pragma once
// Engine selection for Machine::run (docs/performance.md §selector):
// classify each bulk operation from cheap pre-dispatch features and
// dispatch it to the execution strategy the (d,x)-BSP cost shape says
// should win.
//
// Features (all O(1), computed before any per-element work):
//   * h_proc = ceil(n/p), the issue-pipeline depth, and the slackness
//     window min(S, h_proc) — whether the completion window can bind;
//   * the fault-plan fingerprint — whether retries/failover are possible;
//   * eligibility of the dense and SoA fast paths.
//
// The decision is a pure function of the features, so it is
// deterministic across hosts, thread counts and serial-vs-fleet
// execution. Every strategy is bit-identical, so the choice is purely a
// question of speed. Machine verifies eligibility and demotes an
// infeasible choice (recorded as fallback in the selector log) instead
// of trusting the policy blindly.

#include <cstdint>
#include <optional>

#include "obs/selector.hpp"

namespace dxbsp::sim {

/// Pre-dispatch description of one bulk operation.
struct EngineFeatures {
  std::uint64_t processors = 0;
  std::uint64_t h_proc = 0;  ///< ceil(n/p) == max per-proc request count
  std::uint64_t window = 0;  ///< min(slackness, h_proc)
  std::uint64_t plan_fingerprint = 0;  ///< 0 = no fault plan
  /// No plan and the window never binds: the dense fast path is exact.
  bool eligible_dense = false;
  /// Dense-eligible AND ideal network, no cache tier, no tracer, no
  /// per-request timing, batchable banks (no combining, bank cache or
  /// multi-port banks): the SoA batched kernel is exact.
  bool eligible_soa = false;
};

/// The eligibility ladder plus the one way to pin a strategy: force().
class EngineSelector {
 public:
  /// Scheduler-population threshold: below p·window live events the
  /// binary heap's cache footprint beats the calendar wheel's bucket
  /// scan; above it the wheel's O(1) amortized pop wins.
  static constexpr std::uint64_t kHeapEventLimit = 4096;

  [[nodiscard]] obs::EngineChoice decide(const EngineFeatures& f) const;

  /// Pins the raw choice (std::nullopt unpins). Machine still demotes
  /// an ineligible pin — the forced-misprediction fallback.
  void force(std::optional<obs::EngineChoice> choice) noexcept {
    forced_ = choice;
  }
  [[nodiscard]] std::optional<obs::EngineChoice> forced() const noexcept {
    return forced_;
  }

 private:
  std::optional<obs::EngineChoice> forced_;
};

}  // namespace dxbsp::sim
