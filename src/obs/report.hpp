#pragma once
// Structured run reports: one versioned JSON (or CSV) document per bench
// invocation, carrying everything needed to interpret a BENCH_*.json
// trajectory after the fact — experiment id, machine/workload flags,
// seed, build id, every deterministic metric, and (when tracing) a
// per-track timeline summary. See docs/observability.md for the schema.
//
// Reports deliberately exclude anything host- or execution-dependent
// (wall-clock time, thread counts, checkpoint cadence, host metrics):
// a report produced with --threads=4 is byte-identical to one produced
// with --threads=1, and CI diffs them to prove it.

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/selector.hpp"
#include "obs/trace.hpp"

namespace dxbsp::obs {

/// Version 2 added the "attribution" and "drift" sections (each carrying
/// its own schema_version so consumers can evolve per-section; the
/// constants live next to each section's type). The "degraded" section
/// (fleet-mode partial results) carries its own schema version too and
/// only appears when a sweep actually degraded, so healthy merged reports
/// stay byte-identical to serial ones.
/// Version 3 added the fleet-observability sections "fleet" and
/// "post_mortem". Both have since moved out of the report into the fleet
/// directory, beside the fleet's other host-time files: the lifecycle
/// counters into the final fleet.status (svc/payload.hpp), the harvested
/// flight tails into post_mortem.json (obs/flight.hpp). Serial reports
/// never carried them, so the version number stays.
inline constexpr std::uint64_t kReportVersion = 3;
inline constexpr std::uint64_t kDegradedSchemaVersion = 1;

/// Build identifier baked in at configure time ("unknown" outside git).
[[nodiscard]] const char* build_git_describe() noexcept;

/// Invocation identity, filled by bench::Obs from the CLI.
struct RunInfo {
  std::string bench;        ///< experiment id (the banner id)
  std::string description;  ///< banner description line
  std::string machine;      ///< machine preset ("" when per-point/custom)
  std::uint64_t seed = 0;
  /// Workload-shaping flags, sorted by name. Execution flags (--threads,
  /// --checkpoint, ...) must not appear here — see report determinism.
  std::vector<std::pair<std::string, std::string>> flags;
};

/// The report header's members: bench, description, machine, seed and
/// the flags object. The svc aggregates message carries the same members
/// as its "info" object.
void write_json(JsonWriter& w, const RunInfo& info);
void read_json(JsonDecoder& d, RunInfo& info);

/// Partial-result accounting for a sharded sweep that could not complete
/// every shard (docs/resilience.md §fleet mode). Only passed to the
/// report writers when at least one shard was quarantined: retry and
/// death counts are host-dependent, so a healthy fleet run omits the
/// section entirely and its report stays byte-identical to a serial run.
struct DegradedInfo {
  std::uint64_t poisoned_shards = 0;
  std::uint64_t retries = 0;        ///< lease re-grants across all shards
  std::uint64_t worker_deaths = 0;  ///< abnormal worker terminations
  struct Shard {
    std::string shard;       ///< "index/count"
    std::uint64_t strikes = 0;
    std::uint64_t completed = 0;  ///< last observed progress
    std::uint64_t total = 0;      ///< points in the shard (0 = never seen)
    std::string last_error;  ///< last failure observed for the shard
    std::string repro;       ///< standalone command reproducing the range
  };
  std::vector<Shard> shards;  ///< the quarantined shards, by index
};

/// Writes the versioned JSON report. `tracer`, `attribution`, `drift`,
/// `selector` and `degraded` may each be null (their sections are
/// omitted); an empty selector log also omits its section.
/// Host-stability metrics are always excluded from "metrics".
void write_report_json(std::ostream& os, const RunInfo& info,
                       const MetricsRegistry& metrics, const Tracer* tracer,
                       const AttributionAggregate* attribution = nullptr,
                       const DriftDetector* drift = nullptr,
                       const SelectorLog* selector = nullptr,
                       const DegradedInfo* degraded = nullptr);

/// CSV twin: the JSON report flattened into `section,key,value` rows,
/// one per scalar leaf, in document order. The section is the top-level
/// key, or "run" for a top-level scalar; the key is the '.'-joined path
/// below it, with array items named by index (`shards.0.repro`);
/// the value is the JSON text of a number, bool or null, or the string
/// itself. Every field is RFC 4180-escaped (util::csv_escape), so
/// caller-chosen names with commas or quotes cannot shear a row. An empty
/// object or array has no leaf and so no row.
void write_report_csv(std::ostream& os, const RunInfo& info,
                      const MetricsRegistry& metrics, const Tracer* tracer,
                      const AttributionAggregate* attribution = nullptr,
                      const DriftDetector* drift = nullptr,
                      const SelectorLog* selector = nullptr,
                      const DegradedInfo* degraded = nullptr);

/// Opens `path` for writing and runs `fn(stream)`; any failure is
/// Error{kIo} naming the path.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& fn);

}  // namespace dxbsp::obs
