#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>

#include "algos/connected_components.hpp"
#include "algos/radix_sort.hpp"
#include "algos/random_permutation.hpp"
#include "algos/spmv.hpp"
#include "algos/vm.hpp"
#include "bench_common.hpp"
#include "core/predictor.hpp"
#include "fault/fault_plan.hpp"
#include "mem/bank_mapping.hpp"
#include "sim/machine.hpp"
#include "stats.hpp"
#include "stream/executor.hpp"
#include "util/multiplicity.hpp"
#include "util/rng.hpp"
#include "workload/graphs.hpp"
#include "workload/patterns.hpp"
#include "workload/sparse.hpp"

namespace perfbench {

std::string scatter_span(const char* prefix, dxbsp::obs::EngineChoice c) {
  return prefix + engine_key(c);
}

std::string engine_key(dxbsp::obs::EngineChoice c) {
  using dxbsp::obs::EngineChoice;
  switch (c) {
    case EngineChoice::kSoA: return "soa";
    case EngineChoice::kDense: return "dense";
    case EngineChoice::kHeap: return "heap";
    case EngineChoice::kCalendar: return "calendar";
    case EngineChoice::kReference: return "reference";
  }
  return "unknown";
}

namespace {

using namespace dxbsp;

constexpr std::uint64_t kSpace = std::uint64_t{1} << 30;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  return util::mix64(seed ^ util::mix64(salt + 1));
}

double rms(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x * x;
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double rel_err(double predicted, double measured) {
  return measured > 0.0 ? (predicted - measured) / measured : 0.0;
}

/// Both mappings over one bank count, so every workload can time both.
struct MappingPair {
  std::shared_ptr<const mem::BankMapping> interleaved;
  std::shared_ptr<const mem::BankMapping> hashed;

  MappingPair(std::uint64_t banks, std::uint64_t seed)
      : interleaved(std::make_shared<mem::InterleavedMapping>(banks)) {
    util::Xoshiro256 rng(seed);
    hashed = mem::make_mapping("linear", banks, rng);
  }
  [[nodiscard]] const std::shared_ptr<const mem::BankMapping>& pick(
      bool use_hashed) const {
    return use_hashed ? hashed : interleaved;
  }
};

void fold_bulk(Digest& d, const sim::FaultyBulk& fb) {
  const sim::BulkResult& b = fb.bulk;
  d.add({b.cycles, b.n, b.max_bank_load, b.max_proc_requests, b.completed,
         b.retries, b.nacks, b.stall_cycles, b.cache_hits, b.combined,
         b.max_location_contention});
  for (std::size_t i = 0; i < obs::kCostTerms; ++i)
    d.add(obs::cost_term_value(b.breakdown, i));
  d.add(fb.degraded ? fb.degraded->failed_requests : 0);
}

/// Model invariants every simulated bulk op must satisfy: request
/// conservation, the attribution identity, and the issue and bank lower
/// bounds makespan >= max(g·h_proc, d·h_bank). The bank bound is skipped
/// with a bank-side MRU cache (a hit shortens the busy period) and with a
/// processor cache tier (its write-backs load banks off the critical
/// path).
std::uint64_t bulk_violations(const sim::FaultyBulk& fb,
                              const sim::MachineConfig& cfg) {
  const sim::BulkResult& b = fb.bulk;
  const std::uint64_t failed = fb.degraded ? fb.degraded->failed_requests : 0;
  std::uint64_t v = 0;
  if (b.completed + failed != b.n) ++v;
  if (b.breakdown.total() != b.cycles) ++v;
  if (b.cycles < cfg.gap * b.max_proc_requests) ++v;
  if (cfg.bank_cache_lines == 0 && !cfg.cache.enabled() &&
      b.cycles < cfg.bank_delay * b.max_bank_load)
    ++v;
  return v;
}

/// Attaches a selector log for the duration of a traced op, so each bulk
/// op's engine can be read back from its row.
class EngineTap {
 public:
  EngineTap(sim::Machine& m, bool on) : m_(m), on_(on) {
    if (on_) m_.set_selector(&log_);
  }
  ~EngineTap() {
    if (on_) m_.set_selector(nullptr);
  }
  EngineTap(const EngineTap&) = delete;
  EngineTap& operator=(const EngineTap&) = delete;

  void count_into(OpOutcome& out) const {
    if (!on_) return;
    for (const obs::SelectorRow& r : log_.snapshot().rows)
      ++out.engine_ops[static_cast<std::size_t>(r.choice)];
  }
  /// Engine of the most recent bulk op.
  [[nodiscard]] obs::EngineChoice last() const {
    const auto rows = log_.snapshot().rows;
    if (rows.empty()) throw std::logic_error("EngineTap: no selector row");
    return std::max_element(rows.begin(), rows.end(),
                            [](const auto& a, const auto& b) {
                              return a.step < b.step;
                            })
        ->choice;
  }

 private:
  sim::Machine& m_;
  bool on_;
  obs::SelectorLog log_;
};

/// Driver-side replay of the layers a bulk op crosses, on the op's own
/// inputs: both bank mappings, the contention count, (optionally) the
/// predictor, and the scatter itself on a machine configured like the
/// op's. The op's own mapping plus the count is booked per request under
/// "sim.own.<engine>", the part the residual subtracts.
class LayerProbe {
 public:
  /// Returns the replayed scatter's time in nanoseconds.
  double replay(const OpContext& ctx, std::uint64_t parent,
                std::span<const std::uint64_t> addrs, const MappingPair& maps,
                bool own_hashed, const sim::MachineConfig* predict_cfg,
                sim::Machine& twin) {
    banks_.resize(addrs.size());
    double own = 0.0;
    for (const bool hashed : {false, true}) {
      Scope s(ctx.rec,
              hashed ? "mem.bank_of_batch.hashed"
                     : "mem.bank_of_batch.interleaved",
              ctx.op, parent);
      maps.pick(hashed)->bank_of_batch(addrs, banks_);
      s.set_items(addrs.size());
      const auto ns = static_cast<double>(s.close());
      if (hashed == own_hashed) own = ns;
    }
    {
      Scope s(ctx.rec, "util.max_multiplicity", ctx.op, parent);
      (void)counter_.max_multiplicity(addrs);
      s.set_items(addrs.size());
      own += static_cast<double>(s.close());
    }
    if (predict_cfg != nullptr) {
      Scope s(ctx.rec, "core.predict_scatter", ctx.op, parent);
      (void)core::predict_scatter(addrs, *predict_cfg,
                                  maps.pick(own_hashed).get());
      s.set_items(addrs.size());
    }
    EngineTap tap(twin, true);
    Scope s(ctx.rec, "probe.sim.scatter", ctx.op, parent);
    const sim::FaultyBulk fb = twin.scatter_faulty(addrs);
    const std::uint64_t requests = fb.bulk.n + fb.bulk.retries;
    s.set_items(requests);
    s.rename(scatter_span(kProbeScatter, tap.last()));
    const auto ns = static_cast<double>(s.close());
    ctx.rec->add_total("sim.own." + engine_key(tap.last()), own, requests);
    return ns;
  }

 private:
  std::vector<std::uint64_t> banks_;
  util::MultiplicityCounter counter_;
};

/// Median host ns of one 64-element scatter on `m`: the per-op floor.
double fixed_op_ns(sim::Machine& m, std::span<const std::uint64_t> addrs,
                   int reps) {
  const auto small = addrs.first(std::min<std::size_t>(addrs.size(), 64));
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    (void)m.scatter_faulty(small);
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(t);
}

/// Per-op cost of the attribution, drift and selector sinks that
/// bench::Obs::attach wires in: median attached minus median detached
/// 64-element scatter, in alternating blocks.
double attach_ns_per_op(sim::Machine& m,
                        std::span<const std::uint64_t> addrs, int reps) {
  static const char* const kArgv[] = {"perfbench"};
  const util::Cli cli(1, kArgv);
  bench::Obs obs(cli, "perfbench obs probe", "sink cost per bulk op");
  std::vector<double> detached_ns;
  std::vector<double> attached_ns;
  for (int block = 0; block < 10; ++block) {
    const bool attach = block % 2 == 1;
    if (attach) obs.attach(m);
    (attach ? attached_ns : detached_ns)
        .push_back(fixed_op_ns(m, addrs, reps / 10));
    m.set_attribution(nullptr);
    m.set_drift(nullptr);
    m.set_selector(nullptr);
  }
  return median(attached_ns) - median(detached_ns);
}

/// The engines some op selected get their time from those ops; every
/// other engine is timed by forcing it on a prefix of `addrs` on a
/// healthy machine with the workload's p, x, d, g and L, where all four
/// are eligible.
void force_missing_engines(const OpContext& ctx,
                           const sim::MachineConfig& base,
                           std::span<const std::uint64_t> addrs) {
  sim::MachineConfig cfg;
  cfg.processors = base.processors;
  cfg.expansion = base.expansion;
  cfg.bank_delay = base.bank_delay;
  cfg.gap = base.gap;
  cfg.latency = base.latency;
  const auto prefix = addrs.first(std::min<std::size_t>(addrs.size(), 1 << 16));
  for (const obs::EngineChoice e : kKeyedEngines) {
    if (ctx.rec->total(scatter_span(kOpScatter, e)).calls > 0 ||
        ctx.rec->total(scatter_span(kProbeScatter, e)).calls > 0)
      continue;
    sim::Machine m(cfg);
    m.selector().force(e);
    (void)m.scatter_faulty(prefix);  // warm the engine's working state
    EngineTap tap(m, true);
    Scope s(ctx.rec, scatter_span(kForcedScatter, e), ctx.op, 0);
    const sim::FaultyBulk fb = m.scatter_faulty(prefix);
    s.set_items(fb.bulk.n);
    s.close();
    if (tap.last() != e)
      throw std::logic_error("forced engine was demoted: " + engine_key(e));
  }
}

// ---------------------------------------------------------------------
// scatter_large: fig4/fig7-style sweep points on p=64, x=4, d=8. Each op
// predicts, then scatters 2^20 addresses.

class ScatterLarge final : public Workload {
 public:
  explicit ScatterLarge(const WorkloadOptions& opt) : opt_(opt) {}

  void generate(const OpContext& ctx) override {
    const std::uint64_t n = opt_.tiny ? (1 << 14) : (1 << 20);
    const std::uint64_t s = opt_.seed;
    Scope gen(ctx.rec, "workload.gen", ctx.op, 0);
    struct Spec {
      int dist;  // 0 uniform, 1 k-hot, 2 multi-hot
      bool hashed;
      bool sections;
    };
    // Distributions rotate through uniform, k-hot and multi-hot, mappings
    // through interleaved and hashed; the sectioned-network point takes
    // the dense path, the rest the SoA kernel. Four SoA points keep the
    // median op inside one cluster of similar op times.
    const Spec specs[] = {{0, false, false}, {1, true, false},
                          {2, false, false}, {0, true, false},
                          {1, false, true}};
    for (std::size_t i = 0; i < std::size(specs); ++i) {
      Slot slot;
      const std::uint64_t ss = sub_seed(s, i);
      switch (specs[i].dist) {
        case 0: slot.addrs = workload::uniform_random(n, kSpace, ss); break;
        case 1: slot.addrs = workload::k_hot(n, n / 256, kSpace, ss); break;
        default: slot.addrs = workload::multi_hot(n, 64, n / 1024, kSpace, ss);
      }
      slot.hashed = specs[i].hashed;
      slot.sections = specs[i].sections;
      slots_.push_back(std::move(slot));
    }
    gen.set_items(n * slots_.size());
    gen.close();

    maps_.emplace(base_cfg(false).banks(), sub_seed(s, 100));
    for (const Slot& slot : slots_) {
      auto& m = machines_[key(slot.sections, slot.hashed)];
      if (!m)
        m = std::make_unique<sim::Machine>(base_cfg(slot.sections),
                                           maps_->pick(slot.hashed));
    }
  }

  [[nodiscard]] std::size_t slots() const override { return slots_.size(); }

  OpOutcome run_op(std::size_t i, const OpContext& ctx) override {
    Slot& slot = slots_[i];
    sim::Machine& m = machine(slot);
    EngineTap tap(m, ctx.rec != nullptr);
    OpOutcome out;
    core::Prediction pred;
    sim::FaultyBulk fb;
    const std::int64_t t0 = now_ns();
    {
      Scope op(ctx.rec, "op.scatter_large", ctx.op, 0);
      {
        Scope s(ctx.rec, "core.predict_scatter", ctx.op, op.id());
        pred = core::predict_scatter(slot.addrs, m.config(), &m.mapping());
        s.set_items(slot.addrs.size());
      }
      Scope s(ctx.rec, "sim.scatter", ctx.op, op.id());
      fb = m.scatter_faulty(slot.addrs);
      s.set_items(fb.bulk.n + fb.bulk.retries);
      if (ctx.rec != nullptr) s.rename(scatter_span(kOpScatter, tap.last()));
      s.close();
      op.set_items(fb.bulk.n + fb.bulk.retries);
    }
    out.host_ns = now_ns() - t0;
    tap.count_into(out);
    out.requests = fb.bulk.n + fb.bulk.retries;
    out.completed = fb.bulk.completed;
    out.cache_hits = fb.bulk.cache_hits;
    out.bulk_ops = 1;
    Digest d;
    d.add({pred.bsp, pred.dxbsp_location, pred.dxbsp_mapped});
    fold_bulk(d, fb);
    out.digest = d.value();
    out.violations = bulk_violations(fb, m.config());
    if (!slot.err)
      slot.err = rel_err(static_cast<double>(pred.dxbsp_mapped),
                         static_cast<double>(fb.bulk.cycles));
    return out;
  }

  [[nodiscard]] double model_rel_err() const override {
    std::vector<double> errs;
    for (const Slot& s : slots_)
      if (s.err) errs.push_back(*s.err);
    return rms(errs);
  }

  void probe_layers(std::size_t i, const OpContext& ctx) override {
    const Slot& slot = slots_[i];
    Scope root(ctx.rec, "probe", ctx.op, 0);
    (void)probe_.replay(ctx, root.id(), slot.addrs, *maps_, slot.hashed,
                        nullptr, machine(slot));
  }

  void finish_layers(const OpContext& ctx,
                     std::map<std::string, double>& out) override {
    sim::Machine& m = machine(slots_[0]);
    out["sim.fixed_op_ns"] = fixed_op_ns(m, slots_[0].addrs, 2000);
    out["obs.attach_ns_per_op"] = attach_ns_per_op(m, slots_[0].addrs, 2000);
    force_missing_engines(ctx, m.config(), slots_[0].addrs);
  }

 private:
  struct Slot {
    std::vector<std::uint64_t> addrs;
    bool hashed = false;
    bool sections = false;
    std::optional<double> err;
  };

  /// The sectioned network (the kind of machine bench_fig9_network
  /// sweeps) accepts one request per section every 4 cycles. The SoA
  /// kernel needs an ideal network, so the dense path runs there.
  static sim::MachineConfig base_cfg(bool sections) {
    return sim::MachineConfig::parse(
        sections ? "p=64,x=4,d=8,g=1,L=8,sections=64,section-period=4"
                 : "p=64,x=4,d=8,g=1,L=8");
  }
  static int key(bool sections, bool hashed) {
    return (sections ? 2 : 0) + (hashed ? 1 : 0);
  }
  sim::Machine& machine(const Slot& s) {
    return *machines_.at(key(s.sections, s.hashed));
  }

  WorkloadOptions opt_;
  std::vector<Slot> slots_;
  std::optional<MappingPair> maps_;
  std::map<int, std::unique_ptr<sim::Machine>> machines_;
  LayerProbe probe_;
};

// ---------------------------------------------------------------------
// scatter_scheduled: scatter_faulty ops where the slackness window binds
// or a fault plan is injected, so the heap/calendar schedulers run.

class ScatterScheduled final : public Workload {
 public:
  explicit ScatterScheduled(const WorkloadOptions& opt) : opt_(opt) {}

  void generate(const OpContext& ctx) override {
    const std::uint64_t scale = opt_.tiny ? 16 : 1;
    const std::uint64_t s = opt_.seed;
    const std::uint64_t n17 = (std::uint64_t{1} << 17) / scale;
    const std::uint64_t n18 = (std::uint64_t{1} << 18) / scale;
    std::uint64_t total = 0;
    Scope gen(ctx.rec, "workload.gen", ctx.op, 0);
    auto add = [&](const char* spec, std::vector<std::uint64_t> addrs,
                   bool hashed, double drop, double slow) {
      Slot slot;
      slot.cfg = sim::MachineConfig::parse(spec);
      slot.addrs = std::move(addrs);
      slot.hashed = hashed;
      if (drop > 0.0 || slow > 0.0) {
        fault::FaultConfig fc;
        fc.seed = sub_seed(s, 200 + slots_.size());
        fc.drop_rate = drop;
        fc.slow_fraction = slow;
        fc.slow_multiplier = 4;
        slot.plan = std::make_shared<fault::FaultPlan>(fc, slot.cfg.banks());
      }
      total += slot.addrs.size();
      slots_.push_back(std::move(slot));
    };
    // Sizes are picked so every slot's op takes about the same host time:
    // the op-time distribution stays unimodal and its median steady.
    // Tight window on a hot spot: heap scheduler.
    add("p=16,x=4,d=4,g=1,L=8,S=64",
        workload::k_hot(n18, n18 / 32, kSpace, sub_seed(s, 0)), false, 0.0,
        0.0);
    // Drop/retry plus slow banks, full window: calendar wheel.
    add("p=16,x=4,d=4,g=1,L=8",
        workload::uniform_random(n18, kSpace, sub_seed(s, 1)), true, 0.02,
        0.25);
    // Combining on one hot spot, moderate window: calendar wheel. The
    // model charges d·k for the hot location that combining absorbs.
    add("p=16,x=4,d=4,g=1,L=8,S=512,combine=1",
        workload::k_hot(n17, n17 / 32, kSpace, sub_seed(s, 2)), false, 0.0,
        0.0);
    // Processor cache tier on a skewed pattern, tight window: heap.
    add("p=16,x=4,d=4,g=1,L=8,S=64,cache=256,cache-line=8",
        workload::zipf(n17, 1 << 16, 0.9, sub_seed(s, 3)), true, 0.0, 0.0);
    // Drops under a tight window on a larger op: heap with retries.
    add("p=16,x=4,d=4,g=1,L=8,S=128",
        workload::k_hot(n18, n18 / 128, kSpace, sub_seed(s, 4)), false, 0.01,
        0.0);
    gen.set_items(total);
    gen.close();

    maps_.emplace(slots_[0].cfg.banks(), sub_seed(s, 100));
    for (Slot& slot : slots_) {
      slot.machine =
          std::make_unique<sim::Machine>(slot.cfg, maps_->pick(slot.hashed));
      if (slot.plan) slot.machine->inject(slot.plan);
    }
  }

  [[nodiscard]] std::size_t slots() const override { return slots_.size(); }

  OpOutcome run_op(std::size_t i, const OpContext& ctx) override {
    Slot& slot = slots_[i];
    sim::Machine& m = *slot.machine;
    EngineTap tap(m, ctx.rec != nullptr);
    OpOutcome out;
    sim::FaultyBulk fb;
    const std::int64_t t0 = now_ns();
    {
      Scope op(ctx.rec, "op.scatter_scheduled", ctx.op, 0);
      Scope s(ctx.rec, "sim.scatter", ctx.op, op.id());
      fb = m.scatter_faulty(slot.addrs);
      s.set_items(fb.bulk.n + fb.bulk.retries);
      if (ctx.rec != nullptr) s.rename(scatter_span(kOpScatter, tap.last()));
      s.close();
      op.set_items(fb.bulk.n + fb.bulk.retries);
    }
    out.host_ns = now_ns() - t0;
    tap.count_into(out);
    out.requests = fb.bulk.n + fb.bulk.retries;
    out.completed = fb.bulk.completed;
    out.cache_hits = fb.bulk.cache_hits;
    out.bulk_ops = 1;
    Digest d;
    fold_bulk(d, fb);
    out.digest = d.value();
    out.violations = bulk_violations(fb, m.config());
    if (!slot.err) {
      const auto pred =
          core::predict_scatter(slot.addrs, m.config(), &m.mapping());
      slot.err = rel_err(static_cast<double>(pred.dxbsp_mapped),
                         static_cast<double>(fb.bulk.cycles));
    }
    return out;
  }

  [[nodiscard]] double model_rel_err() const override {
    std::vector<double> errs;
    for (const Slot& s : slots_)
      if (s.err) errs.push_back(*s.err);
    return rms(errs);
  }

  void probe_layers(std::size_t i, const OpContext& ctx) override {
    const Slot& slot = slots_[i];
    Scope root(ctx.rec, "probe", ctx.op, 0);
    (void)probe_.replay(ctx, root.id(), slot.addrs, *maps_, slot.hashed,
                        &slot.cfg, *slot.machine);
  }

  void finish_layers(const OpContext& ctx,
                     std::map<std::string, double>& out) override {
    sim::Machine& m = *slots_[0].machine;
    out["sim.fixed_op_ns"] = fixed_op_ns(m, slots_[0].addrs, 2000);
    out["obs.attach_ns_per_op"] = attach_ns_per_op(m, slots_[0].addrs, 2000);
    force_missing_engines(ctx, m.config(), slots_[0].addrs);
  }

 private:
  struct Slot {
    sim::MachineConfig cfg;
    std::vector<std::uint64_t> addrs;
    bool hashed = false;
    std::shared_ptr<const fault::FaultPlan> plan;
    std::unique_ptr<sim::Machine> machine;
    std::optional<double> err;
  };

  WorkloadOptions opt_;
  std::vector<Slot> slots_;
  std::optional<MappingPair> maps_;
  LayerProbe probe_;
};

// ---------------------------------------------------------------------
// algos_program: radix sort, QRQW random permutation, SpMV and connected
// components through algos::Vm — thousands of small bulk ops.

class AlgosProgram final : public Workload {
 public:
  explicit AlgosProgram(const WorkloadOptions& opt) : opt_(opt) {}

  void generate(const OpContext& ctx) override {
    const std::uint64_t scale = opt_.tiny ? 16 : 1;
    const std::uint64_t s = opt_.seed;
    std::uint64_t total = 0;
    Scope gen(ctx.rec, "workload.gen", ctx.op, 0);
    auto add = [&](Kind kind, std::uint64_t n, bool hashed) {
      Slot slot;
      slot.kind = kind;
      slot.n = n;
      slot.hashed = hashed;
      const std::uint64_t ss = sub_seed(s, slots_.size());
      switch (kind) {
        case Kind::kRadix:
          slot.keys = workload::uniform_random(n, n, ss);
          total += n;
          break;
        case Kind::kPermutation:
          slot.perm_seed = ss;
          break;
        case Kind::kSpmv: {
          slot.matrix = workload::dense_column_csr(n, n, 4, n / 16, ss);
          util::Xoshiro256 rng(ss + 1);
          slot.x.resize(n);
          for (double& v : slot.x)
            v = static_cast<double>(rng() >> 11) * 0x1.0p-53;
          total += slot.matrix.nnz() + n;
          break;
        }
        case Kind::kComponents:
          slot.graph = workload::random_gnm(n, n, ss);
          total += 2 * slot.graph.m();
          break;
      }
      slots_.push_back(std::move(slot));
    };
    const std::uint64_t n14 = (std::uint64_t{1} << 14) / scale;
    const std::uint64_t n15 = (std::uint64_t{1} << 15) / scale;
    const std::uint64_t n16 = (std::uint64_t{1} << 16) / scale;
    // Sizes keep every call's host time within 1.5x of the others', so no
    // one algorithm dominates the op-time distribution.
    add(Kind::kRadix, n15, false);
    add(Kind::kPermutation, n16, true);
    add(Kind::kSpmv, n16, false);
    add(Kind::kComponents, n14, true);
    add(Kind::kPermutation, n16, false);
    gen.set_items(total);
    gen.close();

    // The J90 preset: the default machine of every algorithm bench.
    cfg_ = sim::MachineConfig::cray_j90();
    maps_.emplace(cfg_.banks(), sub_seed(s, 100));
  }

  /// Host references the checks compare against.
  void build_references(const OpContext&) override {
    for (Slot& slot : slots_) {
      if (slot.kind == Kind::kSpmv)
        slot.y_ref = slot.matrix.multiply_reference(slot.x);
      if (slot.kind == Kind::kComponents)
        slot.labels_ref = workload::reference_components(slot.graph);
    }
  }

  [[nodiscard]] std::size_t slots() const override { return slots_.size(); }

  void prepare(std::size_t i) override {
    // A fresh Vm per op: its bump allocator places the arrays of every
    // call, so reusing one would shift addresses (and cycles) per call.
    vm_.emplace(cfg_, maps_->pick(slots_[i].hashed));
  }

  OpOutcome run_op(std::size_t i, const OpContext& ctx) override {
    Slot& slot = slots_[i];
    algos::Vm& vm = *vm_;
    const bool first = !slot.seen;
    if (first && opt_.traced)
      vm.set_trace_hook([&slot](const std::string&,
                                std::span<const std::uint64_t> addrs) {
        slot.traces.emplace_back(addrs.begin(), addrs.end());
      });
    EngineTap tap(vm.machine(), ctx.rec != nullptr);
    OpOutcome out;
    Digest d;
    std::uint64_t violations = 0;
    const std::int64_t t0 = now_ns();
    switch (slot.kind) {
      case Kind::kRadix: {
        algos::RadixSortResult r;
        {
          Scope op(ctx.rec, "algos.radix_sort", ctx.op, 0);
          r = algos::radix_sort(vm, slot.keys, bits_for(slot.n));
          op.set_items(vm.ledger().total_requests());
        }
        out.host_ns = now_ns() - t0;
        violations += check_sort(slot.keys, r);
        for (const std::uint64_t k : r.order) d.add(k);
        break;
      }
      case Kind::kPermutation: {
        std::vector<std::uint64_t> perm;
        {
          Scope op(ctx.rec, "algos.random_permutation_qrqw", ctx.op, 0);
          perm = algos::random_permutation_qrqw(vm, slot.n, slot.perm_seed);
          op.set_items(vm.ledger().total_requests());
        }
        out.host_ns = now_ns() - t0;
        if (perm.size() != slot.n || !algos::is_permutation_of_iota(perm))
          ++violations;
        for (const std::uint64_t p : perm) d.add(p);
        break;
      }
      case Kind::kSpmv: {
        std::vector<double> y;
        {
          Scope op(ctx.rec, "algos.spmv", ctx.op, 0);
          y = algos::spmv(vm, slot.matrix, slot.x);
          op.set_items(vm.ledger().total_requests());
        }
        out.host_ns = now_ns() - t0;
        if (y.size() != slot.y_ref.size()) {
          ++violations;
        } else {
          for (std::size_t r = 0; r < y.size(); ++r)
            if (std::abs(y[r] - slot.y_ref[r]) >
                1e-9 * std::max(1.0, std::abs(slot.y_ref[r]))) {
              ++violations;
              break;
            }
        }
        for (const double v : y) d.add_double(v);
        break;
      }
      case Kind::kComponents: {
        std::vector<std::uint32_t> labels;
        {
          Scope op(ctx.rec, "algos.connected_components", ctx.op, 0);
          labels = algos::connected_components(vm, slot.graph);
          op.set_items(vm.ledger().total_requests());
        }
        out.host_ns = now_ns() - t0;
        if (!algos::same_partition(labels, slot.labels_ref)) ++violations;
        for (const std::uint32_t l : labels) d.add(l);
        break;
      }
    }
    vm.set_trace_hook(nullptr);
    tap.count_into(out);
    const core::CostLedger& ledger = vm.ledger();
    d.add({ledger.total_sim(), ledger.total_dxbsp(), ledger.total_bsp(),
           ledger.total_requests(), ledger.max_contention(),
           ledger.entries().size()});
    out.requests = ledger.total_requests();
    out.completed = ledger.total_requests();
    out.bulk_ops = ledger.entries().size();
    out.digest = d.value();
    out.violations = violations;
    if (first) {
      slot.seen = true;
      slot.err = rel_err(static_cast<double>(ledger.total_dxbsp()),
                         static_cast<double>(ledger.total_sim()));
    }
    return out;
  }

  [[nodiscard]] double model_rel_err() const override {
    std::vector<double> errs;
    for (const Slot& s : slots_) errs.push_back(s.err);
    return rms(errs);
  }

  void probe_layers(std::size_t i, const OpContext& ctx) override {
    const Slot& slot = slots_[i];
    sim::Machine& twin = twin_machine(slot.hashed);
    Scope root(ctx.rec, "probe", ctx.op, 0);
    for (const auto& addrs : slot.traces)
      (void)probe_.replay(ctx, root.id(), addrs, *maps_, slot.hashed, &cfg_,
                          twin);
  }

  void finish_layers(const OpContext& ctx,
                     std::map<std::string, double>& out) override {
    // algos.sim_share from a simulate=false twin of every slot: the
    // share of algorithm host time the cycle-level simulation takes.
    double with_sim = 0.0;
    double without_sim = 0.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      for (const bool simulate : {true, false}) {
        std::vector<double> t;
        for (int rep = 0; rep < 3; ++rep) {
          algos::VmOptions vo;
          vo.simulate = simulate;
          vm_.emplace(cfg_, maps_->pick(slots_[i].hashed), vo);
          const std::int64_t t0 = now_ns();
          run_plain(slots_[i], *vm_);
          t.push_back(static_cast<double>(now_ns() - t0));
        }
        (simulate ? with_sim : without_sim) += median(t);
      }
    }
    out["algos.sim_share"] =
        with_sim > 0.0 ? 1.0 - without_sim / with_sim : 0.0;

    sim::Machine& m = twin_machine(false);
    const auto& probe_addrs = first_trace();
    out["sim.fixed_op_ns"] = fixed_op_ns(m, probe_addrs, 2000);
    out["obs.attach_ns_per_op"] = attach_ns_per_op(m, probe_addrs, 2000);
    force_missing_engines(ctx, cfg_, probe_addrs);
  }

 private:
  enum class Kind { kRadix, kPermutation, kSpmv, kComponents };

  struct Slot {
    Kind kind = Kind::kRadix;
    std::uint64_t n = 0;
    bool hashed = false;
    std::vector<std::uint64_t> keys;
    std::uint64_t perm_seed = 0;
    workload::CsrMatrix matrix;
    std::vector<double> x;
    std::vector<double> y_ref;
    workload::Graph graph;
    std::vector<std::uint32_t> labels_ref;
    bool seen = false;
    double err = 0.0;  ///< ledger totals, predicted vs simulated
    std::vector<std::vector<std::uint64_t>> traces;  ///< traced runs only
  };

  static unsigned bits_for(std::uint64_t n) {
    unsigned b = 1;
    while ((std::uint64_t{1} << b) < n) ++b;
    return b;
  }

  static std::uint64_t check_sort(const std::vector<std::uint64_t>& keys,
                                  const algos::RadixSortResult& r) {
    if (r.sorted_keys.size() != keys.size() ||
        r.order.size() != keys.size() ||
        !algos::is_permutation_of_iota(r.order))
      return 1;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (r.sorted_keys[i] != keys[r.order[i]]) return 1;
      if (i > 0 && r.sorted_keys[i - 1] > r.sorted_keys[i]) return 1;
    }
    return 0;
  }

  static void run_plain(const Slot& slot, algos::Vm& vm) {
    switch (slot.kind) {
      case Kind::kRadix:
        (void)algos::radix_sort(vm, slot.keys, bits_for(slot.n));
        break;
      case Kind::kPermutation:
        (void)algos::random_permutation_qrqw(vm, slot.n, slot.perm_seed);
        break;
      case Kind::kSpmv:
        (void)algos::spmv(vm, slot.matrix, slot.x);
        break;
      case Kind::kComponents:
        (void)algos::connected_components(vm, slot.graph);
        break;
    }
  }

  sim::Machine& twin_machine(bool hashed) {
    auto& m = twins_[hashed ? 1 : 0];
    if (!m) m = std::make_unique<sim::Machine>(cfg_, maps_->pick(hashed));
    return *m;
  }

  const std::vector<std::uint64_t>& first_trace() const {
    for (const Slot& s : slots_)
      if (!s.traces.empty()) return s.traces.front();
    throw std::logic_error("algos_program: no captured trace");
  }

  WorkloadOptions opt_;
  sim::MachineConfig cfg_;
  std::vector<Slot> slots_;
  std::optional<MappingPair> maps_;
  std::optional<algos::Vm> vm_;
  std::unique_ptr<sim::Machine> twins_[2];
  LayerProbe probe_;
};

// ---------------------------------------------------------------------
// stream_spill: StreamExecutor::run with a memory budget of 1/8 of the
// stream, spilling into a per-process directory.

class StreamSpill final : public Workload {
 public:
  explicit StreamSpill(const WorkloadOptions& opt) : opt_(opt) {}

  void generate(const OpContext&) override {
    if (opt_.tmp_dir.empty())
      throw std::invalid_argument("stream_spill needs a scratch directory");
    // The J90 preset on its ideal network: bench_stream_pressure's default
    // machine.
    cfg_ = sim::MachineConfig::cray_j90();
    maps_.emplace(cfg_.banks(), sub_seed(opt_.seed, 100));
    for (const bool hashed : {false, true})
      machines_[hashed ? 1 : 0] =
          std::make_unique<sim::Machine>(cfg_, maps_->pick(hashed));

    const std::uint64_t n = opt_.tiny ? (1 << 14) : (1 << 20);
    struct Spec {
      bool hashed;
      std::uint64_t hot_every;
    };
    const Spec specs[] = {{false, 0}, {true, 0}, {false, 61}};
    for (std::size_t i = 0; i < std::size(specs); ++i) {
      Slot slot;
      slot.hashed = specs[i].hashed;
      slot.cfg.n = n;
      slot.cfg.space = kSpace;
      slot.cfg.seed = sub_seed(opt_.seed, i);
      slot.cfg.hot_every = specs[i].hot_every;
      // Slabs of the StreamConfig default size (1 MiB): each spilled slab
      // is one fsynced chunk, and with smaller slabs the op time becomes a
      // count of disk flushes, whose latency is the host's, not the code's.
      if (opt_.tiny) slot.cfg.slab_bytes = 4096;
      slot.cfg.partitions = 8;
      slot.cfg.mem_budget = n * sizeof(std::uint64_t) / 8;
      slot.cfg.spill_dir =
          (std::filesystem::path(opt_.tmp_dir) / ("spill-" + std::to_string(i)))
              .string();
      // In-RAM twin: same stream, unlimited budget.
      slot.in_ram = slot.cfg;
      slot.in_ram.mem_budget = 0;
      slot.in_ram.spill_dir.clear();
      slots_.push_back(std::move(slot));
    }
  }

  void build_references(const OpContext& ctx) override {
    for (Slot& slot : slots_) {
      // The in-RAM twin's checksum is what every budgeted op must
      // reproduce.
      slot.ram_checksum =
          stream::StreamExecutor(slot.in_ram, machine(slot)).run().checksum;
      // (d,x)-BSP prediction per partition: slab s lands in partition
      // s mod P and is scattered whole, so a partition's prediction is the
      // sum over its slabs. Slabs are made one at a time and kept only for
      // the traced run's probes.
      slot.predicted.assign(slot.cfg.partitions, 0.0);
      const std::uint64_t n = slot.cfg.n;
      const std::uint64_t per_slab = slot.cfg.slab_bytes / 8;
      for (std::uint64_t b = 0, k = 0; b < n; b += per_slab, ++k) {
        std::vector<std::uint64_t> slab;
        {
          Scope gen(ctx.rec, "workload.gen", ctx.op, 0);
          slab = workload::stream_slab(slot.cfg.seed, b,
                                       std::min(per_slab, n - b),
                                       slot.cfg.space, slot.cfg.hot_every);
          gen.set_items(slab.size());
        }
        slot.predicted[k % slot.cfg.partitions] += static_cast<double>(
            core::predict_scatter(slab, cfg_, &machine(slot).mapping())
                .dxbsp_mapped);
        if (opt_.traced) slot.slabs.push_back(std::move(slab));
      }
    }
  }

  [[nodiscard]] std::size_t slots() const override { return slots_.size(); }

  OpOutcome run_op(std::size_t i, const OpContext& ctx) override {
    Slot& slot = slots_[i];
    sim::Machine& m = machine(slot);
    EngineTap tap(m, ctx.rec != nullptr);
    stream::StreamExecutor ex(slot.cfg, m);
    OpOutcome out;
    stream::StreamResult r;
    const std::int64_t t0 = now_ns();
    {
      Scope op(ctx.rec, "stream.run", ctx.op, 0);
      r = ex.run();
      op.set_items(r.elements);
    }
    out.host_ns = now_ns() - t0;
    tap.count_into(out);
    out.requests = r.elements;
    out.completed = r.completed;
    for (const auto& p : r.partitions) out.bulk_ops += p.slabs;
    Digest d;
    d.add({r.checksum, r.elements, r.cycles, r.max_bank_load, r.completed,
           r.peak_bytes, r.spilled_bytes, r.spill_chunks,
           r.back_pressure_events});
    for (const auto& p : r.partitions)
      d.add({p.partition, p.slabs, p.cycles, p.checksum});
    out.digest = d.value();
    if (r.checksum != slot.ram_checksum) ++out.violations;
    if (r.elements != slot.cfg.n || r.completed != r.elements)
      ++out.violations;
    if (r.peak_bytes > slot.cfg.mem_budget + slot.cfg.slab_bytes)
      ++out.violations;
    if (!slot.result) {
      slot.result = r;
      for (const auto& p : r.partitions)
        slot.errs.push_back(rel_err(slot.predicted[p.partition],
                                    static_cast<double>(p.cycles)));
    }
    slot.last_op_ns = static_cast<double>(out.host_ns);
    return out;
  }

  [[nodiscard]] double model_rel_err() const override {
    std::vector<double> errs;
    for (const Slot& s : slots_)
      errs.insert(errs.end(), s.errs.begin(), s.errs.end());
    return rms(errs);
  }

  void probe_layers(std::size_t i, const OpContext& ctx) override {
    const Slot& slot = slots_[i];
    sim::Machine& twin = twin_machine(slot.hashed);
    Scope root(ctx.rec, "probe", ctx.op, 0);
    for (const auto& slab : slot.slabs)
      sim_ns_ +=
          probe_.replay(ctx, root.id(), slab, *maps_, slot.hashed, &cfg_, twin);
    op_ns_ += slot.last_op_ns;
  }

  void finish_layers(const OpContext& ctx,
                     std::map<std::string, double>& out) override {
    const Slot& slot = slots_[0];
    sim::Machine& m = machine(slot);
    auto timed = [&](const stream::StreamConfig& c) {
      std::vector<double> t;
      for (int rep = 0; rep < 5; ++rep) {
        if (!c.checkpoint.empty()) std::filesystem::remove(c.checkpoint);
        stream::StreamExecutor ex(c, m);
        const std::int64_t t0 = now_ns();
        (void)ex.run();
        t.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
      return median(t);
    };
    const double in_ram_s = timed(slot.in_ram);
    const double budgeted_s = timed(slot.cfg);
    stream::StreamConfig ckpt = slot.cfg;
    ckpt.checkpoint =
        (std::filesystem::path(opt_.tmp_dir) / "partitions.ckpt").string();
    const double ckpt_s = timed(ckpt);
    std::filesystem::remove(ckpt.checkpoint);
    out["stream.in_ram_ns_per_elem"] =
        in_ram_s * 1e9 / static_cast<double>(slot.cfg.n);
    out["stream.spill_overhead_s"] = budgeted_s - in_ram_s;
    out["resilience.checkpoint_overhead_s"] = ckpt_s - budgeted_s;

    double spilled = 0, chunks = 0, pressure = 0, peak = 0;
    for (const Slot& s : slots_) {
      spilled += static_cast<double>(s.result->spilled_bytes);
      chunks += static_cast<double>(s.result->spill_chunks);
      pressure += static_cast<double>(s.result->back_pressure_events);
      peak += static_cast<double>(s.result->peak_bytes);
    }
    const auto k = static_cast<double>(slots_.size());
    out["stream.spilled_bytes"] = spilled / k;
    out["stream.spill_chunks"] = chunks / k;
    out["stream.back_pressure_events"] = pressure / k;
    out["stream.peak_bytes"] = peak / k;
    out["algos.sim_share"] = op_ns_ > 0.0 ? sim_ns_ / op_ns_ : 0.0;

    out["sim.fixed_op_ns"] = fixed_op_ns(m, slot.slabs.front(), 2000);
    out["obs.attach_ns_per_op"] = attach_ns_per_op(m, slot.slabs.front(), 2000);
    force_missing_engines(ctx, cfg_, slot.slabs.front());
  }

 private:
  struct Slot {
    stream::StreamConfig cfg;
    stream::StreamConfig in_ram;
    bool hashed = false;
    std::uint64_t ram_checksum = 0;
    std::vector<double> predicted;  ///< per partition
    std::vector<std::vector<std::uint64_t>> slabs;  ///< traced runs only
    std::optional<stream::StreamResult> result;
    std::vector<double> errs;
    double last_op_ns = 0.0;
  };

  sim::Machine& machine(const Slot& s) { return *machines_[s.hashed ? 1 : 0]; }
  sim::Machine& twin_machine(bool hashed) {
    auto& m = twins_[hashed ? 1 : 0];
    if (!m) m = std::make_unique<sim::Machine>(cfg_, maps_->pick(hashed));
    return *m;
  }

  WorkloadOptions opt_;
  sim::MachineConfig cfg_;
  std::optional<MappingPair> maps_;
  std::unique_ptr<sim::Machine> machines_[2];
  std::unique_ptr<sim::Machine> twins_[2];
  std::vector<Slot> slots_;
  LayerProbe probe_;
  double sim_ns_ = 0.0;  ///< replayed scatter time, probes so far
  double op_ns_ = 0.0;   ///< latest op time of each probed slot
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt) {
  if (name == "scatter_large") return std::make_unique<ScatterLarge>(opt);
  if (name == "scatter_scheduled")
    return std::make_unique<ScatterScheduled>(opt);
  if (name == "algos_program") return std::make_unique<AlgosProgram>(opt);
  if (name == "stream_spill") return std::make_unique<StreamSpill>(opt);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
