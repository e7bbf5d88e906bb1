#pragma once
// Model-drift detection: measured superstep time vs the (d,x)-BSP
// prediction, per bulk operation (docs/observability.md §drift).
//
// Every observed superstep is compared against the model that should
// explain it: healthy runs against Eq. (1) with the measured h_proc /
// h_bank (core::dxbsp_step_time — the "dxbsp mapped" predictor of the
// figure benches), faulty runs against stats::predict_degraded with the
// measured location contention. The detector counts supersteps whose
// relative error leaves a configurable band (the paper's validation
// holds ±25%), and latches the worst offender with its full context —
// cost breakdown, bank-load distribution summary, mapping name, fault
// plan fingerprint — so one report pinpoints where the model stopped
// describing the machine.
//
// Determinism: each sample's prediction and error are pure functions of
// the workload, and the worst-offender latch breaks |error| ties by the
// deterministic (track, step) identity — never by arrival order — so
// the drift section of a run report is byte-identical across thread
// counts (Stability::kDeterministic).

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/attribution.hpp"
#include "sim/machine_config.hpp"

namespace dxbsp::fault {
class FaultPlan;
}

namespace dxbsp::obs {

/// "drift" section schema. Schema 2 added the cache_hit term to the
/// worst offender's breakdown (see kAttributionSchemaVersion).
inline constexpr std::uint64_t kDriftSchemaVersion = 2;

struct DriftConfig {
  /// Relative-error band: |measured/predicted - 1| above this flags the
  /// superstep. Default is the paper's validated ±25%.
  double band = 0.25;
};

/// One superstep observation, filled by sim::Machine at the end of a
/// bulk operation.
struct DriftSample {
  std::uint64_t track = 0;  ///< sweep-point id (bench::Obs::attach)
  std::uint64_t step = 0;   ///< superstep sequence number within the track
  std::uint64_t cycles = 0;
  std::uint64_t n = 0;
  std::uint64_t h_proc = 0;  ///< measured max per-processor requests
  std::uint64_t h_bank = 0;  ///< measured max per-bank load
  std::uint64_t location_contention = 0;  ///< measured k
  std::uint64_t cache_hits = 0;    ///< cache-tier hits (0 when no tier)
  std::uint64_t cache_misses = 0;  ///< cache-tier misses (0 when no tier)
  std::uint64_t h_proc_miss = 0;   ///< measured max per-processor misses
  CostBreakdown breakdown;
  std::uint64_t sketch_p50 = 0;
  std::uint64_t sketch_p99 = 0;
  std::uint64_t sketch_max = 0;
  std::string mapping;                  ///< mem::BankMapping::name()
  std::uint64_t plan_fingerprint = 0;   ///< fault::FaultPlan::fingerprint()
  const sim::MachineConfig* config = nullptr;  ///< required
  const fault::FaultPlan* plan = nullptr;      ///< null = healthy model
};

/// The latched worst offender, context included.
struct DriftWorst {
  bool valid = false;
  std::uint64_t track = 0;
  std::uint64_t step = 0;
  std::uint64_t measured = 0;
  double predicted = 0.0;
  double rel_err = 0.0;  ///< measured/predicted - 1
  std::uint64_t n = 0;
  std::uint64_t h_proc = 0;
  std::uint64_t h_bank = 0;
  std::uint64_t location_contention = 0;
  CostBreakdown breakdown;
  std::uint64_t sketch_p50 = 0;
  std::uint64_t sketch_p99 = 0;
  std::uint64_t sketch_max = 0;
  std::string mapping;
  std::uint64_t plan_fingerprint = 0;
};

class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig cfg = {}) : cfg_(cfg) {
    snap_.band = cfg_.band;
  }

  /// Scores one superstep; returns the model prediction in cycles.
  double observe(const DriftSample& sample);

  struct Snapshot {
    double band = 0.25;
    std::uint64_t supersteps = 0;
    std::uint64_t out_of_band = 0;
    double max_abs_rel_err = 0.0;
    DriftWorst worst;
  };

  [[nodiscard]] Snapshot snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

  /// Folds another detector's snapshot in: counts add, max_abs_rel_err
  /// maxes, and the worst-offender latch applies the same total order as
  /// observe() (strictly larger |rel_err| wins, exact ties to the lower
  /// (track, step)), so merging per-shard snapshots of disjoint sample
  /// sets — in any order — latches the same worst offender a single
  /// detector scoring every sample would have. Bands must match; a
  /// mismatch is Error{kConfig} (shards of one sweep share the band).
  void merge(const Snapshot& o);

  [[nodiscard]] const DriftConfig& config() const noexcept { return cfg_; }

 private:
  DriftConfig cfg_;
  mutable std::mutex mu_;
  Snapshot snap_;
};

/// Members of the "drift" section, shared by the run report and the svc
/// aggregates payload; "worst" is null until a superstep is scored.
void write_json(JsonWriter& w, const DriftDetector::Snapshot& s);
void read_json(JsonDecoder& d, DriftDetector::Snapshot& s);

/// Cache-tier activity of the superstep being scored, when the machine
/// runs a processor-cache tier (sim::MachineConfig::cache). All zeros —
/// or a null pointer — means the flat predictors apply unchanged.
struct CacheObserved {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t h_proc_miss = 0;  ///< max cache misses by any processor
};

/// The prediction a DriftSample is scored against (exposed for tests and
/// machine_explorer --explain): dxbsp_step_time on the measured profile
/// when `plan` is null, stats::predict_degraded otherwise. With cache
/// activity observed, the hit-ratio-corrected core::dxbsp_step_time_cached
/// replaces the flat healthy model, and the degraded model is fed the
/// miss count instead of n (docs/cache.md §prediction).
[[nodiscard]] double drift_prediction(const sim::MachineConfig& cfg,
                                      const fault::FaultPlan* plan,
                                      std::uint64_t n, std::uint64_t h_proc,
                                      std::uint64_t h_bank,
                                      std::uint64_t location_contention,
                                      const CacheObserved* cache = nullptr);

}  // namespace dxbsp::obs
