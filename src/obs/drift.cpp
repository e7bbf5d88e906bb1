#include "obs/drift.hpp"

#include <cmath>

#include "core/cost.hpp"
#include "core/params.hpp"
#include "fault/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "resilience/error.hpp"
#include "stats/degraded.hpp"

namespace dxbsp::obs {

double drift_prediction(const sim::MachineConfig& cfg,
                        const fault::FaultPlan* plan, std::uint64_t n,
                        std::uint64_t h_proc, std::uint64_t h_bank,
                        std::uint64_t location_contention,
                        const CacheObserved* cache) {
  if (cache != nullptr && cache->hits + cache->misses > 0) {
    // Hit-ratio correction: hits complete locally, so the issue stream's
    // tail ends one hit latency after the last issue; only misses enter
    // the bank/network core. A configured tier that saw no traffic (e.g.
    // a bank-id workload that bypasses it) falls through to the flat
    // predictors below.
    const auto params = core::DxBspParams::from_config(cfg);
    if (plan == nullptr) {
      return static_cast<double>(core::dxbsp_step_time_cached(
          params,
          core::CachedStepProfile{h_proc, cache->h_proc_miss, h_bank,
                                  cache->hits, cache->misses,
                                  cfg.cache.hit_latency, n}));
    }
    const std::uint64_t hit_tail =
        cache->hits > 0 ? params.g * (h_proc - 1) + cfg.cache.hit_latency
                        : 0;
    const double miss_core =
        cache->misses > 0
            ? stats::predict_degraded(cfg, *plan, cache->misses,
                                      std::max<std::uint64_t>(
                                          location_contention, 1))
                  .cycles
            : 0.0;
    return std::max(static_cast<double>(hit_tail), miss_core);
  }
  if (plan != nullptr) {
    return stats::predict_degraded(cfg, *plan, n,
                                   std::max<std::uint64_t>(
                                       location_contention, 1))
        .cycles;
  }
  const auto params = core::DxBspParams::from_config(cfg);
  return static_cast<double>(
      core::dxbsp_step_time(params, core::StepProfile{h_proc, h_bank, n}));
}

double DriftDetector::observe(const DriftSample& sample) {
  const CacheObserved cache{sample.cache_hits, sample.cache_misses,
                            sample.h_proc_miss};
  const double predicted =
      sample.config == nullptr
          ? 0.0
          : drift_prediction(*sample.config, sample.plan, sample.n,
                             sample.h_proc, sample.h_bank,
                             sample.location_contention, &cache);
  // An unpredictable superstep (empty op, or no config) scores 0 error
  // rather than dividing by zero.
  const double rel_err =
      predicted > 0.0
          ? static_cast<double>(sample.cycles) / predicted - 1.0
          : 0.0;
  const double abs_err = std::fabs(rel_err);

  const std::lock_guard<std::mutex> lock(mu_);
  ++snap_.supersteps;
  if (abs_err > cfg_.band) ++snap_.out_of_band;
  snap_.max_abs_rel_err = std::max(snap_.max_abs_rel_err, abs_err);

  // Worst-offender latch, interleaving-independent: strictly larger
  // |error| wins; exact ties go to the lower (track, step) identity so
  // concurrent sweep threads converge on the same offender.
  DriftWorst& w = snap_.worst;
  const bool better =
      !w.valid || abs_err > std::fabs(w.rel_err) ||
      (abs_err == std::fabs(w.rel_err) &&
       (sample.track < w.track ||
        (sample.track == w.track && sample.step < w.step)));
  if (better) {
    w.valid = true;
    w.track = sample.track;
    w.step = sample.step;
    w.measured = sample.cycles;
    w.predicted = predicted;
    w.rel_err = rel_err;
    w.n = sample.n;
    w.h_proc = sample.h_proc;
    w.h_bank = sample.h_bank;
    w.location_contention = sample.location_contention;
    w.breakdown = sample.breakdown;
    w.sketch_p50 = sample.sketch_p50;
    w.sketch_p99 = sample.sketch_p99;
    w.sketch_max = sample.sketch_max;
    w.mapping = sample.mapping;
    w.plan_fingerprint = sample.plan_fingerprint;
  }
  return predicted;
}

void DriftDetector::merge(const Snapshot& o) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (o.band != snap_.band)
    raise(ErrorCode::kConfig,
          "DriftDetector::merge: band mismatch (" + std::to_string(o.band) +
              " vs " + std::to_string(snap_.band) + ")");
  snap_.supersteps += o.supersteps;
  snap_.out_of_band += o.out_of_band;
  snap_.max_abs_rel_err = std::max(snap_.max_abs_rel_err, o.max_abs_rel_err);
  if (!o.worst.valid) return;
  DriftWorst& w = snap_.worst;
  const double abs_err = std::fabs(o.worst.rel_err);
  const bool better =
      !w.valid || abs_err > std::fabs(w.rel_err) ||
      (abs_err == std::fabs(w.rel_err) &&
       (o.worst.track < w.track ||
        (o.worst.track == w.track && o.worst.step < w.step)));
  if (better) w = o.worst;
}

// The "worst" object, internal to this file like the sketch codec in
// attribution.cpp; the reader sets `valid`.
static void write_json(JsonWriter& w, const DriftWorst& x) {
  w.member("track", x.track);
  w.member("step", x.step);
  w.member("measured_cycles", x.measured);
  w.member("predicted_cycles", x.predicted);
  w.member("rel_err", x.rel_err);
  w.member("n", x.n);
  w.member("h_proc", x.h_proc);
  w.member("h_bank", x.h_bank);
  w.member("location_contention", x.location_contention);
  write_object(w, "breakdown", x.breakdown);
  w.member("bank_load_p50", x.sketch_p50);
  w.member("bank_load_p99", x.sketch_p99);
  w.member("bank_load_max", x.sketch_max);
  w.member("mapping", x.mapping);
  w.member("fault_plan_fingerprint", x.plan_fingerprint);
}

static void read_json(JsonDecoder& d, DriftWorst& x) {
  x.valid = true;
  x.track = d.u64("track");
  x.step = d.u64("step");
  x.measured = d.u64("measured_cycles");
  x.predicted = d.dbl("predicted_cycles");
  x.rel_err = d.dbl("rel_err");
  x.n = d.u64("n");
  x.h_proc = d.u64("h_proc");
  x.h_bank = d.u64("h_bank");
  x.location_contention = d.u64("location_contention");
  d.read("breakdown", x.breakdown);
  x.sketch_p50 = d.u64("bank_load_p50");
  x.sketch_p99 = d.u64("bank_load_p99");
  x.sketch_max = d.u64("bank_load_max");
  x.mapping = d.str("mapping");
  x.plan_fingerprint = d.u64("fault_plan_fingerprint");
}

void write_json(JsonWriter& w, const DriftDetector::Snapshot& s) {
  w.member("schema_version", kDriftSchemaVersion);
  w.member("band", s.band);
  w.member("supersteps", s.supersteps);
  w.member("out_of_band", s.out_of_band);
  w.member("max_abs_rel_err", s.max_abs_rel_err);
  if (s.worst.valid) {
    write_object(w, "worst", s.worst);
  } else {
    w.key("worst").null_value();
  }
}

void read_json(JsonDecoder& d, DriftDetector::Snapshot& s) {
  d.expect_version(kDriftSchemaVersion);
  s.band = d.dbl("band");
  s.supersteps = d.u64("supersteps");
  s.out_of_band = d.u64("out_of_band");
  s.max_abs_rel_err = d.dbl("max_abs_rel_err");
  d.read_opt("worst", s.worst);
}

}  // namespace dxbsp::obs
