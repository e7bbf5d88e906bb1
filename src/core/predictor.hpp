#pragma once
// One-call predictions for bulk scatter/gather operations: the
// measured-vs-predicted interface every experiment uses.

#include <cstdint>
#include <span>
#include <string>

#include "core/access_profile.hpp"
#include "core/params.hpp"
#include "sim/machine_config.hpp"

namespace dxbsp::sim {
struct BulkResult;
}

namespace dxbsp::core {

/// Predicted times (in cycles) for one bulk operation under the competing
/// models. `dxbsp_location` is the paper's headline prediction (knows only
/// n and the max location contention k); `dxbsp_mapped` additionally
/// accounts module-map contention under a concrete mapping; `bsp` is the
/// bank-blind baseline.
struct Prediction {
  std::uint64_t bsp = 0;
  std::uint64_t dxbsp_location = 0;
  std::uint64_t dxbsp_mapped = 0;  ///< 0 when no mapping was supplied
  AccessProfile profile;

  friend bool operator==(const Prediction&, const Prediction&) = default;
};

/// Predicts the time of a scatter/gather of `addrs` on machine `m`.
/// If `mapping` is non-null the mapped (oracle) prediction is included.
/// The model-only entry: it maps and counts every address itself. After
/// a simulated op, use predict(result, ...) instead.
[[nodiscard]] Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                                         const DxBspParams& m,
                                         const mem::BankMapping* mapping = nullptr);

/// Same from a simulator configuration.
[[nodiscard]] Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                                         const sim::MachineConfig& cfg,
                                         const mem::BankMapping* mapping = nullptr);

/// Predicts a bulk op the simulator already ran, from the access profile
/// Machine::run returned with it (n, k, distinct locations, pre-service
/// mapped bank load): no second mapping-and-count pass. Field-identical
/// to predict_scatter(addrs, cfg, &machine.mapping()) on the op's
/// addresses. Not for a result restored from a snapshot or svc payload,
/// which does not carry the profile fields.
[[nodiscard]] Prediction predict(const sim::BulkResult& res,
                                 const DxBspParams& m);
[[nodiscard]] Prediction predict(const sim::BulkResult& res,
                                 const sim::MachineConfig& cfg);

/// Predicts from aggregate quantities only (n requests, max contention k).
[[nodiscard]] Prediction predict_aggregate(std::uint64_t n,
                                           std::uint64_t max_contention,
                                           const DxBspParams& m);

}  // namespace dxbsp::core
