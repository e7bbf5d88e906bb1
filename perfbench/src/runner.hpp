#pragma once
// One benchmark run: set-up (repeated, median reported), then a closed
// loop of ops for the run's duration. Untraced runs produce the
// end-to-end metrics; traced runs repeat the loop with spans and layer
// probes and produce the per-layer metrics.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1995;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< test sizing
  std::string out_dir = ".";  ///< result file and Chrome trace
  std::string tmp_base = ".";  ///< parent of the per-process scratch dir
  /// Digest the warm-up outputs must fold to (recorded for the default
  /// seed); unset skips the comparison.
  std::optional<std::uint64_t> expect_digest;
  /// Bit pattern model_rel_err must have (recorded for the default seed);
  /// unset skips the comparison.
  std::optional<std::uint64_t> expect_model_err;
  bool corrupt_digest = false;  ///< test hook: spoil slot 0's reference
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< fold of the slots' output digests
  /// Computed and checked in both modes; reported by untraced runs.
  double model_rel_err = 0.0;
  std::vector<Metric> metrics;
};

/// Metric names and units the result carries, in output order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Runs the benchmark; progress and tables go to `log`. model_rel_err
/// must be bit-identical to the recorded value and to the one stored by a
/// run of the other mode (traced vs untraced) at `result_path`.
[[nodiscard]] RunResult run_benchmark(const RunConfig& cfg, std::ostream& log);

/// Where the result of `cfg`'s workload and seed is stored, per mode.
[[nodiscard]] std::string result_path(const RunConfig& cfg, bool trace);

/// What a baseline records for the default seed.
struct Baseline {
  std::uint64_t digest = 0;
  std::uint64_t model_err_bits = 0;
};

/// Set-up only, at one repetition.
[[nodiscard]] Baseline baseline_outputs(const RunConfig& cfg);

/// Human-readable metric table: name, value, unit, sample count.
void print_metrics(const RunResult& r, std::ostream& os);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_line(const RunResult& r);

/// The stored result: the same plus sample counts, failed_frac, the
/// model_rel_err bit pattern and the host fingerprint.
[[nodiscard]] std::string result_file_json(const RunConfig& cfg,
                                           const RunResult& r);

}  // namespace perfbench
