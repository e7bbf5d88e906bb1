#include "core/predictor.hpp"

#include "sim/machine.hpp"

namespace dxbsp::core {

namespace {
Prediction predictions_from_profile(const AccessProfile& ap,
                                    const DxBspParams& m) {
  Prediction pr;
  pr.profile = ap;
  pr.bsp = bsp_step_time(m, ap.location_step());
  pr.dxbsp_location = dxbsp_step_time(m, ap.location_step());
  pr.dxbsp_mapped =
      ap.h_bank_mapped == 0 ? 0 : dxbsp_step_time(m, ap.mapped_step());
  return pr;
}
}  // namespace

Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                           const DxBspParams& m,
                           const mem::BankMapping* mapping) {
  return predictions_from_profile(profile_access(addrs, m, mapping), m);
}

Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                           const sim::MachineConfig& cfg,
                           const mem::BankMapping* mapping) {
  return predict_scatter(addrs, DxBspParams::from_config(cfg), mapping);
}

Prediction predict(const sim::BulkResult& res, const DxBspParams& m) {
  return predictions_from_profile(
      make_profile(res.n, res.max_location_contention, res.distinct_locations,
                   res.mapped_bank_load, m),
      m);
}

Prediction predict(const sim::BulkResult& res, const sim::MachineConfig& cfg) {
  return predict(res, DxBspParams::from_config(cfg));
}

Prediction predict_aggregate(std::uint64_t n, std::uint64_t max_contention,
                             const DxBspParams& m) {
  return predictions_from_profile(profile_aggregate(n, max_contention, m), m);
}

}  // namespace dxbsp::core
