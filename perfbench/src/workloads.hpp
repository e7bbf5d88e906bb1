#pragma once
// The benchmark's four workloads. Each is a closed loop over a fixed
// rotation of "slots" (input + machine) generated from the run's seed:
// one client issues the next op only after the previous one returns. An
// op is one call to the workload's top-level public function; the
// workload times that call itself, so the output checks that follow it
// never count as op time.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/selector.hpp"
#include "spans.hpp"

namespace perfbench {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "scatter_large", "scatter_scheduled", "algos_program", "stream_spill"};
  return names;
}

/// Engines a selector row can name that the per-layer metrics key on.
inline constexpr std::array<dxbsp::obs::EngineChoice, 4> kKeyedEngines = {
    dxbsp::obs::EngineChoice::kSoA, dxbsp::obs::EngineChoice::kDense,
    dxbsp::obs::EngineChoice::kHeap, dxbsp::obs::EngineChoice::kCalendar};

[[nodiscard]] std::string engine_key(dxbsp::obs::EngineChoice c);

/// Span names of scatter calls are a prefix plus the engine key: an op's
/// own scatter, a probe's replay of it on the same inputs, and a probe
/// that forces an engine no op selected.
inline constexpr const char* kOpScatter = "sim.scatter.";
inline constexpr const char* kProbeScatter = "probe.sim.scatter.";
inline constexpr const char* kForcedScatter = "forced.sim.scatter.";
[[nodiscard]] std::string scatter_span(const char* prefix,
                                       dxbsp::obs::EngineChoice c);

/// Where an op's layer spans go. A null recorder means untraced.
struct OpContext {
  SpanRecorder* rec = nullptr;
  std::uint64_t op = 0;  ///< op id shared by every span of the op
};

struct OpOutcome {
  std::int64_t host_ns = 0;     ///< the top-level call only
  std::uint64_t requests = 0;   ///< simulated requests: n + retries
  std::uint64_t completed = 0;  ///< requests that finished service
  std::uint64_t cache_hits = 0;
  std::uint64_t bulk_ops = 0;   ///< simulator bulk ops the call issued
  std::uint64_t digest = 0;     ///< fold of the deterministic outputs
  std::uint64_t violations = 0; ///< failed output checks
  /// Bulk ops per engine (selector rows); filled only when traced.
  std::array<std::uint64_t, dxbsp::obs::kEngineChoices> engine_ops{};
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool tiny = false;           ///< test sizing: a few ms per op
  bool traced = false;         ///< keep what the layer probes replay
  std::string tmp_dir;         ///< per-process scratch for spill files
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every slot's inputs from the seed (the workload.gen span)
  /// and builds the machines.
  virtual void generate(const OpContext& ctx) = 0;

  /// After generate(), outside setup_s: what the output checks and
  /// model_rel_err compare against (host oracles, in-RAM twins, model
  /// predictions).
  virtual void build_references(const OpContext& /*ctx*/) {}

  [[nodiscard]] virtual std::size_t slots() const = 0;

  /// Untimed preparation before an op (a fresh Vm for algorithm ops).
  virtual void prepare(std::size_t /*slot*/) {}

  /// One op on `slot`: times the top-level call, then checks its outputs.
  [[nodiscard]] virtual OpOutcome run_op(std::size_t slot,
                                         const OpContext& ctx) = 0;

  /// (d,x)-BSP prediction error over the slots' outputs, from the first
  /// op on each slot (deterministic: a function of the seed only).
  [[nodiscard]] virtual double model_rel_err() const = 0;

  /// Traced run only, after the traced ops: times the mapping,
  /// multiplicity and prediction layers and a replay of the slot's bulk
  /// scatters on the slot's own inputs.
  virtual void probe_layers(std::size_t slot, const OpContext& ctx) = 0;

  /// Traced run only: one-off layer measurements (per-op floor, sink
  /// cost, twins, engines no op selected). Adds metrics to `out`.
  virtual void finish_layers(const OpContext& ctx,
                             std::map<std::string, double>& out) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& opt);

}  // namespace perfbench
