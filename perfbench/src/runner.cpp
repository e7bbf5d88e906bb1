#include "runner.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fingerprint.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"requests_per_s", "1/s"}, {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},       {"setup_s", "s"},
      {"peak_rss_mb", "MB"},     {"model_rel_err", "ratio"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"workload.gen_ns_per_elem", "ns/elem"},
      {"mem.bank_of_batch_ns_per_elem.interleaved", "ns/elem"},
      {"mem.bank_of_batch_ns_per_elem.hashed", "ns/elem"},
      {"util.multiplicity_ns_per_elem", "ns/elem"},
      {"core.predict_ns_per_elem", "ns/elem"},
      {"sim.scatter_ns_per_request.soa", "ns/req"},
      {"sim.scatter_ns_per_request.dense", "ns/req"},
      {"sim.scatter_ns_per_request.heap", "ns/req"},
      {"sim.scatter_ns_per_request.calendar", "ns/req"},
      {"sim.engine_ops.soa", "count"},
      {"sim.engine_ops.dense", "count"},
      {"sim.engine_ops.heap", "count"},
      {"sim.engine_ops.calendar", "count"},
      {"sim.residual_ns_per_request", "ns/req"},
      {"sim.fixed_op_ns", "ns"},
      {"sim.useful_attempt_ratio", "ratio"},
      {"sim.cache_hit_ratio", "ratio"},
      {"obs.attach_ns_per_op", "ns"},
      {"algos.vm_ops", "count"},
      {"algos.ns_per_vm_op", "ns"},
      {"algos.sim_share", "ratio"},
      {"stream.in_ram_ns_per_elem", "ns/elem"},
      {"stream.spill_overhead_s", "s"},
      {"stream.spilled_bytes", "bytes"},
      {"stream.spill_chunks", "count"},
      {"stream.back_pressure_events", "count"},
      {"stream.peak_bytes", "bytes"},
      {"resilience.checkpoint_overhead_s", "s"},
      {"trace_overhead_frac", "ratio"}};
  return specs;
}

namespace {

namespace fs = std::filesystem;

/// Probe passes over every slot after the traced ops.
constexpr int kProbeReps = 2;
constexpr int kSetups = 3;

/// Per-process scratch directory (spill chunks, checkpoints), removed
/// when the run ends. mkdtemp plus the pid keeps concurrent runs apart.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& base) {
    fs::create_directories(base);
    std::string tmpl =
        (fs::path(base) / ("perfbench-" + std::to_string(::getpid()) +
                           "-XXXXXX"))
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("cannot create scratch directory " + tmpl);
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// What one closed-loop phase did.
struct Phase {
  std::vector<double> op_ms;
  std::vector<std::vector<double>> slot_ms;  ///< op_ms split by slot
  double op_ns = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t bulk_ops = 0;
  std::array<std::uint64_t, dxbsp::obs::kEngineChoices> engine_ops{};

  [[nodiscard]] double requests_per_s() const {
    return op_ns > 0.0 ? static_cast<double>(requests) * 1e9 / op_ns : 0.0;
  }
};

/// Runs whole rotations over the slots until `seconds` have passed; each
/// op is checked against its slot's reference digest and invariants.
/// With a recorder, rotations alternate untraced (into `plain`) and
/// traced (into `traced`), so both halves see the same host conditions.
void run_phase(Workload& w, double seconds, SpanRecorder* rec,
               const std::vector<std::uint64_t>& ref, std::uint64_t& op_id,
               std::ostream& log, Phase& plain, Phase& traced) {
  for (Phase* ph : {&plain, &traced}) ph->slot_ms.resize(w.slots());
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t min_ops = w.slots() * (rec != nullptr ? 2 : 1);
  for (std::size_t i = 0;; ++i) {
    const std::size_t slot = i % w.slots();
    if (slot == 0 && i >= min_ops && now_ns() - start >= budget) break;
    const bool trace_this = rec != nullptr && (i / w.slots()) % 2 == 1;
    Phase& ph = trace_this ? traced : plain;
    w.prepare(slot);
    const OpContext ctx{trace_this ? rec : nullptr, ++op_id};
    ++ph.ops;
    try {
      const OpOutcome o = w.run_op(slot, ctx);
      ph.op_ms.push_back(static_cast<double>(o.host_ns) / 1e6);
      ph.slot_ms[slot].push_back(ph.op_ms.back());
      ph.op_ns += static_cast<double>(o.host_ns);
      ph.requests += o.requests;
      ph.completed += o.completed;
      ph.cache_hits += o.cache_hits;
      ph.bulk_ops += o.bulk_ops;
      for (std::size_t e = 0; e < o.engine_ops.size(); ++e)
        ph.engine_ops[e] += o.engine_ops[e];
      if (o.digest != ref[slot] || o.violations > 0) {
        ++ph.failed;
        log << "op " << ctx.op << " (slot " << slot << "): "
            << (o.digest != ref[slot] ? "output digest mismatch" : "")
            << (o.violations > 0 ? " invariant violations" : "") << "\n";
      }
    } catch (const std::exception& e) {
      ++ph.failed;
      log << "op " << ctx.op << " (slot " << slot << ") threw: " << e.what()
          << "\n";
    }
  }
}

/// Drops the kernel's peak-RSS mark to the current RSS (Linux
/// /proc/self/clear_refs), after handing freed heap back, so the peak
/// read after the timed phase is the phase's own and not set-up's, which
/// holds check references and in-RAM twins. False if the kernel refuses.
bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return static_cast<bool>(f);
}

/// Peak resident set since the last reset (VmHWM), in MiB; the process
/// lifetime peak from getrusage where /proc is unavailable.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A freshly set-up workload: inputs generated, machines built, the
/// checks' references computed, and one warm-up op per slot whose digests
/// become the references.
struct Prepared {
  std::unique_ptr<Workload> w;
  std::vector<std::uint64_t> digests;
  std::uint64_t violations = 0;
  double setup_s = 0.0;  ///< generation, machines and warm-up; not references
};

Prepared set_up(const RunConfig& cfg, const std::string& scratch,
                SpanRecorder* rec, std::ostream& log) {
  WorkloadOptions opt;
  opt.seed = cfg.seed;
  opt.tiny = cfg.tiny;
  opt.traced = cfg.trace;
  opt.tmp_dir = scratch;
  Prepared p;
  const std::int64_t t0 = now_ns();
  p.w = make_workload(cfg.workload, opt);
  p.w->generate(OpContext{rec, 0});
  const std::int64_t t1 = now_ns();
  p.w->build_references(OpContext{rec, 0});
  const std::int64_t t2 = now_ns();
  for (std::size_t s = 0; s < p.w->slots(); ++s) {
    p.w->prepare(s);
    const OpOutcome o = p.w->run_op(s, OpContext{});
    p.digests.push_back(o.digest);
    if (o.violations > 0) {
      ++p.violations;
      log << "warm-up op on slot " << s << ": invariant violations\n";
    }
  }
  p.setup_s = static_cast<double>((t1 - t0) + (now_ns() - t2)) / 1e9;
  return p;
}

std::uint64_t fold(const std::vector<std::uint64_t>& digests) {
  Digest d;
  for (const std::uint64_t x : digests) d.add(x);
  return d.value();
}

/// The model_rel_err bit pattern a stored result carries, if any.
std::optional<std::uint64_t> stored_model_err(const std::string& path) {
  std::ifstream f(path);
  const std::string text{std::istreambuf_iterator<char>(f),
                         std::istreambuf_iterator<char>()};
  const std::string key = "\"model_rel_err_bits\": \"";
  const auto at = text.find(key);
  if (at == std::string::npos) return std::nullopt;
  return std::stoull(text.substr(at + key.size(), 16), nullptr, 16);
}

/// model_rel_err is a function of the seed alone, so a run that changes
/// its bits is wrong: it must match the value recorded for the default
/// seed and the value a run of the other mode stored for this seed. Each
/// mismatch counts one failure.
void check_model_err(const RunConfig& cfg, RunResult& r, std::ostream& log) {
  const auto mine = std::bit_cast<std::uint64_t>(r.model_rel_err);
  auto compare = [&](std::uint64_t other, const std::string& whose) {
    if (other == mine) return;
    ++r.failed;
    log << "model_rel_err bits " << hex(mine) << " differ from " << whose
        << " " << hex(other) << "\n";
  };
  if (cfg.expect_model_err) compare(*cfg.expect_model_err, "the recorded");
  if (const auto peer = stored_model_err(result_path(cfg, !cfg.trace)))
    compare(*peer, cfg.trace ? "the untraced run's" : "the traced run's");
}

void add(RunResult& r, const std::string& name, double value,
         std::uint64_t samples) {
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricSpec& s : *specs)
      if (name == s.name) {
        r.metrics.push_back({name, value, s.unit, samples});
        return;
      }
  throw std::logic_error("unknown metric " + name);
}

/// One engine's scatter time split into the op's own bank mapping plus
/// the contention count (timed by the probes on the same inputs) and the
/// residual: kernel, attribution and publish. The scatter time is the
/// ops' own where they issue scatters directly, else the probes' replays.
struct ScatterParts {
  double scatter = 0.0;  ///< ns per request
  double own = 0.0;      ///< ns per request
  double residual = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t calls = 0;  ///< scatter calls timed
};

ScatterParts scatter_parts(const SpanRecorder& rec, dxbsp::obs::EngineChoice e) {
  LayerTotal t = rec.total(scatter_span(kOpScatter, e));
  if (t.calls == 0) t = rec.total(scatter_span(kProbeScatter, e));
  const LayerTotal own = rec.total("sim.own." + engine_key(e));
  ScatterParts p;
  if (t.calls == 0 || own.calls == 0) return p;
  p.scatter = t.ns_per_item();
  p.own = own.ns_per_item();
  p.residual = p.scatter - p.own;
  p.requests = t.items;
  p.calls = t.calls;
  return p;
}

void derive_layers(const SpanRecorder& rec, const Phase& traced,
                   const Phase& untraced, double natural_scatter_ns,
                   const std::map<std::string, double>& extras,
                   RunResult& r) {
  const std::uint64_t ops = traced.ops;
  auto per_item = [&](const char* span) {
    return rec.total(span).ns_per_item();
  };
  add(r, "workload.gen_ns_per_elem", per_item("workload.gen"), 1);
  add(r, "mem.bank_of_batch_ns_per_elem.interleaved",
      per_item("mem.bank_of_batch.interleaved"),
      rec.total("mem.bank_of_batch.interleaved").calls);
  add(r, "mem.bank_of_batch_ns_per_elem.hashed",
      per_item("mem.bank_of_batch.hashed"),
      rec.total("mem.bank_of_batch.hashed").calls);
  add(r, "util.multiplicity_ns_per_elem", per_item("util.max_multiplicity"),
      rec.total("util.max_multiplicity").calls);
  add(r, "core.predict_ns_per_elem", per_item("core.predict_scatter"),
      rec.total("core.predict_scatter").calls);
  // An engine's time comes from the ops that ran on it, else from probe
  // replays of the ops' bulk scatters, else from a forced-engine probe.
  for (const auto e : kKeyedEngines) {
    LayerTotal t;
    for (const char* prefix : {kOpScatter, kProbeScatter, kForcedScatter}) {
      t = rec.total(scatter_span(prefix, e));
      if (t.calls > 0) break;
    }
    add(r, "sim.scatter_ns_per_request." + engine_key(e), t.ns_per_item(),
        t.calls);
  }
  for (const auto e : kKeyedEngines)
    add(r, "sim.engine_ops." + engine_key(e),
        ops > 0 ? static_cast<double>(traced.engine_ops[static_cast<std::size_t>(e)]) /
                      static_cast<double>(ops)
                : 0.0,
        ops);
  double residual_ns = 0.0;
  std::uint64_t residual_requests = 0;
  std::uint64_t scatters = 0;
  for (const auto e : kKeyedEngines) {
    const ScatterParts p = scatter_parts(rec, e);
    residual_ns += p.residual * static_cast<double>(p.requests);
    residual_requests += p.requests;
    scatters += p.calls;
  }
  add(r, "sim.residual_ns_per_request",
      residual_requests > 0
          ? residual_ns / static_cast<double>(residual_requests)
          : 0.0,
      scatters);
  auto extra = [&](const std::string& name, double fallback) {
    const auto it = extras.find(name);
    return it != extras.end() ? it->second : fallback;
  };
  add(r, "sim.fixed_op_ns", extra("sim.fixed_op_ns", 0.0), 1);
  add(r, "sim.useful_attempt_ratio",
      traced.requests > 0 ? static_cast<double>(traced.completed) /
                                static_cast<double>(traced.requests)
                          : 0.0,
      ops);
  add(r, "sim.cache_hit_ratio",
      traced.completed > 0 ? static_cast<double>(traced.cache_hits) /
                                 static_cast<double>(traced.completed)
                           : 0.0,
      ops);
  add(r, "obs.attach_ns_per_op", extra("obs.attach_ns_per_op", 0.0), 1);
  add(r, "algos.vm_ops",
      ops > 0 ? static_cast<double>(traced.bulk_ops) / static_cast<double>(ops)
              : 0.0,
      ops);
  add(r, "algos.ns_per_vm_op",
      traced.bulk_ops > 0 ? traced.op_ns / static_cast<double>(traced.bulk_ops)
                          : 0.0,
      ops);
  // Scatter workloads: the share of op time inside the natural scatter
  // spans. Algorithm and stream workloads measure it with twins.
  add(r, "algos.sim_share",
      extra("algos.sim_share",
            traced.op_ns > 0.0 ? natural_scatter_ns / traced.op_ns : 0.0),
      ops);
  for (const char* name :
       {"stream.in_ram_ns_per_elem", "stream.spill_overhead_s",
        "stream.spilled_bytes", "stream.spill_chunks",
        "stream.back_pressure_events", "stream.peak_bytes",
        "resilience.checkpoint_overhead_s"})
    add(r, name, extra(name, 0.0), extras.count(name) ? 1 : 0);
  const double u = untraced.requests_per_s();
  add(r, "trace_overhead_frac",
      u > 0.0 ? (u - traced.requests_per_s()) / u : 0.0, ops);
}

/// How the layer parts account for the measured op time: the op's own
/// spans (prediction, scatter) against the op, and each engine's scatter
/// split into mapping + multiplicity and residual.
void print_accounting(const SpanRecorder& rec, const Phase& traced,
                      const RunResult& r, std::ostream& log) {
  double overhead = 0.0;
  for (const Metric& m : r.metrics)
    if (m.name == "trace_overhead_frac") overhead = m.value;
  log << "\naccounting (trace_overhead_frac " << num(overhead) << "):\n";
  double op_self = 0.0;
  for (const auto& [name, t] : rec.self_times())
    if (name.rfind("op.", 0) == 0) op_self += t.ns;
  if (op_self > 0.0 && traced.op_ns > 0.0)
    log << "  share of op time outside its layer spans: "
        << num(op_self / traced.op_ns) << "\n";
  for (const auto e : kKeyedEngines) {
    const ScatterParts p = scatter_parts(rec, e);
    if (p.requests == 0) continue;
    log << "  " << engine_key(e) << " scatter " << num(p.scatter)
        << " ns/req = mapping + multiplicity " << num(p.own) << " + residual "
        << num(p.residual) << "\n";
  }
}

}  // namespace

RunResult run_benchmark(const RunConfig& cfg, std::ostream& log) {
  const ScratchDir scratch(cfg.tmp_base);
  log << "scratch_dir=" << scratch.path() << "\n";
  RunResult r;

  SpanRecorder rec;
  SpanRecorder* const tracer = cfg.trace ? &rec : nullptr;
  // setup_s is the median of kSetups set-ups; traced runs do not report
  // it and set up once.
  const int setups = cfg.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  Prepared p;
  std::vector<std::uint64_t> ref;
  for (int k = 0; k < setups; ++k) {
    p = Prepared{};  // release the previous set-up before the next
    p = set_up(cfg, scratch.path(), tracer, log);
    setup_s.push_back(p.setup_s);
    r.attempted += p.w->slots();
    r.failed += p.violations;
    if (ref.empty()) {
      ref = p.digests;
    } else if (p.digests != ref) {
      r.failed += p.w->slots();
      log << "set-up " << k << " produced different outputs\n";
    }
  }
  r.digest = fold(ref);
  if (cfg.expect_digest && *cfg.expect_digest != r.digest) {
    r.failed += p.w->slots();
    r.correct = false;
    log << "digest " << hex(r.digest) << " differs from the recorded "
        << hex(*cfg.expect_digest) << "\n";
  }
  if (cfg.corrupt_digest) ref[0] ^= 1;

  Workload& w = *p.w;
  r.model_rel_err = w.model_rel_err();
  check_model_err(cfg, r, log);
  if (!reset_peak_rss())
    log << "peak RSS mark not resettable: peak_rss_mb includes set-up\n";
  std::uint64_t op_id = 0;
  if (!cfg.trace) {
    Phase ph;
    Phase unused;
    run_phase(w, cfg.seconds, nullptr, ref, op_id, log, ph, unused);
    for (std::size_t s = 0; s < ph.slot_ms.size(); ++s)
      if (!ph.slot_ms[s].empty())
        log << "slot " << s << ": op_ms p25 " << num(quantile(ph.slot_ms[s], 0.25))
            << " median " << num(median(ph.slot_ms[s]))
            << " over " << ph.slot_ms[s].size() << " ops\n";
    r.attempted += ph.ops;
    r.failed += ph.failed;
    const TimingSummary ts = summarize(ph.op_ms.empty() ? std::vector<double>{0.0}
                                                        : ph.op_ms);
    add(r, "requests_per_s", ph.requests_per_s(), ph.ops);
    add(r, "op_ms_p50", ts.p50, ts.count);
    if (ts.p90) {
      add(r, "op_ms_p90", *ts.p90, ts.count);
    } else {
      log << "op_ms_p90 withheld: " << samples_beyond(ts.count, 90)
          << " samples beyond it, " << kMinTailSamples << " needed\n";
    }
    add(r, "setup_s", median(setup_s), setup_s.size());
    add(r, "peak_rss_mb", peak_rss_mb(), 1);
    add(r, "model_rel_err", r.model_rel_err, w.slots());
  } else {
    Phase plain;
    Phase traced;
    run_phase(w, cfg.seconds, &rec, ref, op_id, log, plain, traced);
    r.attempted += plain.ops + traced.ops;
    r.failed += plain.failed + traced.failed;
    for (int rep = 0; rep < kProbeReps; ++rep)
      for (std::size_t s = 0; s < w.slots(); ++s)
        w.probe_layers(s, OpContext{&rec, ++op_id});
    double scatter_ns = 0.0;
    for (const auto e : kKeyedEngines)
      scatter_ns += rec.total(scatter_span(kOpScatter, e)).ns;
    std::map<std::string, double> extras;
    w.finish_layers(OpContext{&rec, ++op_id}, extras);
    derive_layers(rec, traced, plain, scatter_ns, extras, r);
    log << "model_rel_err " << num(r.model_rel_err) << " (bits "
        << hex(std::bit_cast<std::uint64_t>(r.model_rel_err))
        << "; reported by the untraced run)\n";

    fs::create_directories(cfg.out_dir);
    const fs::path trace_path =
        fs::path(cfg.out_dir) /
        (cfg.workload + "-seed" + std::to_string(cfg.seed) + ".trace.json");
    std::ofstream tf(trace_path);
    rec.write_chrome_json(tf);
    if (!tf) throw std::runtime_error("cannot write " + trace_path.string());
    log << "chrome trace: " << trace_path.string() << " ("
        << rec.spans().size() << " spans)\n\nper-layer self time:\n";
    rec.print_self_time_table(log);

    print_accounting(rec, traced, r, log);
  }
  if (r.failed > 0) r.correct = false;
  return r;
}

std::string result_path(const RunConfig& cfg, bool trace) {
  return (fs::path(cfg.out_dir) /
          ("result-" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
           (cfg.tiny ? "-tiny" : "") + "-trace" + (trace ? "1" : "0") +
           ".json"))
      .string();
}

Baseline baseline_outputs(const RunConfig& cfg) {
  const ScratchDir scratch(cfg.tmp_base);
  std::ostringstream sink;
  const Prepared p = set_up(cfg, scratch.path(), nullptr, sink);
  if (p.violations > 0)
    throw std::runtime_error("warm-up ops violated model invariants:\n" +
                             sink.str());
  return {fold(p.digests), std::bit_cast<std::uint64_t>(p.w->model_rel_err())};
}

void print_metrics(const RunResult& r, std::ostream& os) {
  os << std::left << std::setw(44) << "metric" << std::right << std::setw(24)
     << "value" << "  " << std::left << std::setw(8) << "unit" << std::right
     << std::setw(9) << "samples" << "\n";
  for (const Metric& m : r.metrics)
    os << std::left << std::setw(44) << m.name << std::right << std::setw(24)
       << num(m.value) << "  " << std::left << std::setw(8) << m.unit
       << std::right << std::setw(9) << m.samples << "\n";
}

std::string result_line(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string result_file_json(const RunConfig& cfg, const RunResult& r) {
  std::ostringstream os;
  os << "{\n  \"workload\": \"" << cfg.workload << "\",\n  \"seed\": "
     << cfg.seed << ",\n  \"trace\": " << (cfg.trace ? 1 : 0)
     << ",\n  \"seconds\": " << num(cfg.seconds)
     << ",\n  \"fingerprint\": " << to_json(host_fingerprint())
     << ",\n  \"digest\": \"" << hex(r.digest) << "\""
     << ",\n  \"model_rel_err_bits\": \""
     << hex(std::bit_cast<std::uint64_t>(r.model_rel_err)) << "\""
     << ",\n  \"correct\": " << (r.correct ? "true" : "false")
     << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": "
     << r.failed << ",\n  \"failed_frac\": "
     << num(r.attempted > 0 ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0)
     << ",\n  \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    os << (first ? "" : ",") << "\n    \"" << m.name << "\": {\"value\": "
       << num(m.value) << ", \"unit\": \"" << m.unit
       << "\", \"samples\": " << m.samples << "}";
    first = false;
  }
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace perfbench
