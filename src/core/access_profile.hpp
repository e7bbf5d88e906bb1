#pragma once
// Builds superstep request profiles (h_proc, h_bank) from address traces.
//
// This is the bridge from a concrete memory access pattern to the model's
// inputs. Two bank-load estimates are provided:
//   * the *location* estimate max(k, ceil(n/B)) — what an analyst knows
//     without fixing a mapping: the hottest location pins one bank, and
//     n requests cannot spread thinner than n/B (this is the estimate the
//     paper's predicted curves use);
//   * the *mapped* (oracle) load — the true per-bank max under a concrete
//     mapping, including module-map contention (§4).
// A simulated op carries the same numbers in its sim::BulkResult, and
// core::predict(result, ...) builds the profile from them (make_profile)
// instead of analyzing the addresses again.

#include <cstdint>
#include <span>

#include "core/cost.hpp"
#include "core/params.hpp"
#include "mem/bank_mapping.hpp"
#include "mem/contention.hpp"

namespace dxbsp::core {

/// Everything the model needs to know about one bulk operation.
struct AccessProfile {
  std::uint64_t n = 0;               ///< total requests
  std::uint64_t h_proc = 0;          ///< ceil(n/p) under even distribution
  std::uint64_t max_contention = 0;  ///< k: hottest location multiplicity
  std::uint64_t distinct = 0;        ///< distinct locations touched
  std::uint64_t h_bank_location = 0; ///< max(k, ceil(n/B))
  std::uint64_t h_bank_mapped = 0;   ///< true max bank load (0 if no mapping)

  /// Profile using the location estimate.
  [[nodiscard]] StepProfile location_step() const noexcept {
    return StepProfile{h_proc, h_bank_location, n};
  }
  /// Profile using the concrete mapped load.
  [[nodiscard]] StepProfile mapped_step() const noexcept {
    return StepProfile{h_proc, h_bank_mapped, n};
  }

  friend bool operator==(const AccessProfile&, const AccessProfile&) = default;
};

/// The one place the model's derived loads are worked out: h_proc =
/// ceil(n/p) and h_bank_location = max(k, ceil(n/B)); the other fields
/// are taken as given (h_bank_mapped 0 = no mapping).
[[nodiscard]] AccessProfile make_profile(std::uint64_t n,
                                         std::uint64_t max_contention,
                                         std::uint64_t distinct,
                                         std::uint64_t h_bank_mapped,
                                         const DxBspParams& m);

/// Analyzes `addrs` for machine `m`. If `mapping` is non-null the true
/// bank loads under that mapping are computed as well (O(n + B) extra).
[[nodiscard]] AccessProfile profile_access(std::span<const std::uint64_t> addrs,
                                           const DxBspParams& m,
                                           const mem::BankMapping* mapping);

/// Profile for a bulk operation described only by aggregate numbers
/// (n requests, max location contention k) — the form used in analyses.
[[nodiscard]] AccessProfile profile_aggregate(std::uint64_t n,
                                              std::uint64_t max_contention,
                                              const DxBspParams& m);

}  // namespace dxbsp::core
