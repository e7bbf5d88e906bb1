#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "resilience/error.hpp"
#include "util/bits.hpp"
#include "util/calendar_queue.hpp"
#include "util/scratch.hpp"
#include "util/soa.hpp"

namespace dxbsp::sim {

namespace {

/// Trace-record helper: compiles to nothing with DXBSP_OBS_TRACE=0 and
/// to a single null test when tracing is compiled in but not attached.
inline void rec([[maybe_unused]] obs::TraceRing* ring,
                [[maybe_unused]] obs::TraceKind kind,
                [[maybe_unused]] std::uint64_t ts,
                [[maybe_unused]] std::uint64_t dur,
                [[maybe_unused]] std::uint64_t a,
                [[maybe_unused]] std::uint64_t b) noexcept {
  if constexpr (obs::kTraceCompiledIn) {
    if (ring != nullptr) ring->record({ts, dur, a, b, kind});
  }
}

/// Publishes one bulk operation's telemetry into the global metrics
/// registry. Every update is commutative (docs/observability.md), so
/// aggregate values are identical for any sweep-thread interleaving.
void publish_bulk(const BulkResult& res, std::uint64_t failed,
                  const BankArray& banks, const Network& net,
                  const cache::CacheTier* tier = nullptr) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("sim.bulk_ops").add();
  reg.counter("sim.requests").add(res.n);
  reg.counter("sim.cycles").add(res.cycles);
  reg.counter("sim.completed").add(res.completed);
  reg.counter("sim.failed_requests").add(failed);
  reg.counter("sim.stall_cycles").add(res.stall_cycles);
  reg.gauge("sim.max_cycles").observe(res.cycles);
  reg.gauge("sim.max_bank_load").observe(res.max_bank_load);
  reg.gauge("sim.max_proc_requests").observe(res.max_proc_requests);
  reg.histogram("sim.bulk_cycles", obs::pow4_bounds()).observe(res.cycles);
  reg.counter("fault.retries").add(res.retries);
  reg.counter("fault.nacks").add(res.nacks);
  reg.counter("fault.failovers").add(res.failovers);
  reg.counter("fault.degraded_cycles").add(res.degraded_cycles);
  // Cost attribution (docs/observability.md §attribution): per-term
  // cycle totals of the critical-path decomposition, the hottest
  // location, and the per-op max bank load distribution.
  for (std::size_t i = 0; i < obs::kCostTerms; ++i)
    reg.counter(std::string("attr.") + obs::cost_term_name(i) + "_cycles")
        .add(obs::cost_term_value(res.breakdown, i));
  reg.counter("attr.supersteps").add();
  reg.gauge("attr.max_location_contention")
      .observe(res.max_location_contention);
  reg.histogram("attr.bank_load_max", obs::pow4_bounds())
      .observe(res.bank_sketch.max);
  banks.publish(reg);
  net.publish(reg);
  // Processor-cache tier (docs/cache.md). Published only when the tier
  // exists so uncached machines keep their exact pre-tier metric set
  // (byte-identical reports). bank.cache_hits folds together with the
  // bank-side MRU hits banks.publish() just added — both are "requests
  // some cache kept off a bank pipeline".
  if (tier != nullptr) {
    reg.counter("bank.cache_hits").add(tier->hits());
    reg.counter("bank.cache_misses").add(tier->misses());
    reg.counter("bank.cache_evictions").add(tier->writebacks());
  }
}

Network make_network(const MachineConfig& cfg) {
  if (cfg.butterfly_network) {
    return Network::butterfly(cfg.latency, cfg.link_period, cfg.banks(),
                              cfg.processors);
  }
  return Network(cfg.latency, cfg.network_sections, cfg.section_period,
                 cfg.banks());
}

}  // namespace

namespace {

/// Per-processor issue state during one bulk operation (reference
/// engine; the calendar engine uses the flattened ProcFlat).
struct ProcState {
  std::uint64_t begin = 0;       // first element index (block) / proc id (cyclic)
  std::uint64_t count = 0;       // elements owned
  std::uint64_t issued = 0;      // elements issued so far
  std::uint64_t last_issue = 0;  // issue time of the previous request
  std::uint64_t stall = 0;       // accumulated stall cycles
  // Ring of completion times for the last `window` requests (slackness).
  std::vector<std::uint64_t> completions;
};

/// Calendar-engine per-processor state: POD so the whole array lives in
/// one reusable scratch vector; the completion ring is a slice
/// [ring_off, ring_off + window) of one shared flat ring buffer.
struct ProcFlat {
  std::uint64_t count = 0;
  std::uint64_t issued = 0;
  std::uint64_t last_issue = 0;
  std::uint64_t stall = 0;
  std::uint64_t ring_off = 0;
  std::uint64_t window = 0;
};

struct Event {
  std::uint64_t depart;  // time the request enters the network
  std::uint64_t elem;    // element index (only meaningful for retries)
  std::uint32_t proc;
  std::uint32_t attempt;  // 0 = fresh issue; k >= 1 = k-th retry
  // Min-queue by (depart, proc, attempt, elem): the tiebreaks make the
  // simulation deterministic regardless of scheduler internals, and both
  // engines (heap and calendar queue) pop in exactly this order.
  friend bool operator>(const Event& a, const Event& b) {
    if (a.depart != b.depart) return a.depart > b.depart;
    if (a.proc != b.proc) return a.proc > b.proc;
    if (a.attempt != b.attempt) return a.attempt > b.attempt;
    return a.elem > b.elem;
  }
};

struct EventKey {
  std::uint64_t operator()(const Event& e) const noexcept { return e.depart; }
};

/// Binary-heap scheduler with the CalendarQueue's push/pop/reset shape,
/// so the general event loop is generic over the two. Storage persists
/// across bulk ops (reset() keeps capacity). Pop order is the total
/// Event order — identical to both the calendar wheel and the reference
/// engine's priority_queue.
struct EventHeap {
  std::vector<Event> events;
  void reset() noexcept { events.clear(); }
  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  void push(const Event& e) {
    events.push_back(e);
    std::push_heap(events.begin(), events.end(), std::greater<>{});
  }
  Event pop() {
    std::pop_heap(events.begin(), events.end(), std::greater<>{});
    const Event e = events.back();
    events.pop_back();
    return e;
  }
};

// Scratch-arena slot names (uint64 buffers).
constexpr std::size_t kRouteSlot = 0;  // addr → bank, one per element
constexpr std::size_t kRingSlot = 1;   // flattened completion rings
constexpr std::size_t kCntSlot = 2;    // per-bank request count
constexpr std::size_t kRepeatSlot = 3;  // addresses requested twice or more

/// Walks the n requests of a bulk op in scheduler pop order for the case
/// where every issue departs exactly `gap` after the previous one (no
/// fault plan, window never binds): processor P's j-th request departs
/// at j·g, so the (depart, proc, attempt, elem) order is the nested
/// (wave j, proc) order. Calls f(elem, proc, j) with the request's
/// element index, processor and wave. Block: processor P owns
/// elements [P·per, P·per + per), and wave j visits each one's j-th.
/// Cyclic: element k is processor k%p's (k/p)-th issue, so pop order IS
/// element order, p consecutive elements per wave. Polls `cancel` every
/// 4096 requests, the scheduled loops' cadence.
template <typename F>
inline void for_each_in_pop_order(bool block, std::uint64_t n,
                                  std::uint64_t p,
                                  const resilience::CancelToken* cancel,
                                  F&& f) {
  std::uint64_t events = 0;
  const auto visit = [&](std::uint64_t elem, std::uint64_t proc,
                         std::uint64_t j) {
    if (cancel != nullptr && (++events & 0xFFFU) == 0) {
      cancel->heartbeat();
      cancel->raise_if_expired("Machine::run");
    }
    f(elem, proc, j);
  };
  if (block) {
    const std::uint64_t per = util::ceil_div(n, p);
    for (std::uint64_t j = 0; j < per; ++j) {
      for (std::uint64_t proc = 0; proc < p; ++proc) {
        const std::uint64_t elem = proc * per + j;
        if (elem < n) visit(elem, proc, j);
      }
    }
  } else {
    for (std::uint64_t j = 0, base = 0; base < n; ++j, base += p) {
      const std::uint64_t end = std::min(base + p, n);
      for (std::uint64_t i = base; i < end; ++i) visit(i, i - base, j);
    }
  }
}

}  // namespace

/// Reusable engine state: allocated on first bulk op, after which a
/// steady-state sweep performs no per-op allocations here
/// (docs/performance.md §scratch).
struct Machine::Workspace {
  util::ScratchArena arena;
  util::CalendarQueue<Event, EventKey> queue{4096};
  EventHeap heap;
};

Machine::Machine(MachineConfig config,
                 std::shared_ptr<const mem::BankMapping> mapping)
    : config_(std::move(config)),
      mapping_(std::move(mapping)),
      banks_(config_.banks(), config_.bank_delay,
             BankCacheConfig{config_.bank_cache_lines,
                             config_.cache_line_words, config_.cached_delay},
             config_.combine_requests, config_.bank_ports),
      network_(make_network(config_)) {
  config_.validate();
  if (!mapping_) raise(ErrorCode::kConfig, "Machine: null mapping");
  if (mapping_->num_banks() != config_.banks())
    raise(ErrorCode::kConfig,
          "Machine: mapping bank count does not match configuration");
  if (config_.cache.enabled())
    tier_ = std::make_unique<cache::CacheTier>(config_.cache,
                                               config_.processors);
}

void Machine::line_writeback(std::uint64_t addr, std::uint64_t depart,
                             std::uint64_t proc, bool whole_line,
                             BulkResult& res) {
  // Whole-line transfers (dirty evictions) route by line index, not by
  // the line's base word address: line bases are multiples of cache-line
  // words, so under word-interleaved mapping every line would alias to
  // the few banks dividing the line size (B = 8 with 8-word lines sends
  // ALL eviction traffic to bank 0). Striding by line id spreads line
  // transfers the way lines themselves are spread. Write-through
  // forwards are single-word stores and keep the word's own bank.
  const std::uint64_t line = addr / config_.cache.line_words;
  std::uint64_t bank = mapping_->bank_of(whole_line ? line : addr);
  const std::uint64_t arrival = network_.traverse(bank, depart, proc);
  if (plan_ != nullptr && plan_->dead_at(bank, arrival)) {
    const std::uint64_t spare = plan_->failover(bank, addr, arrival);
    if (spare == fault::kNoBank) return;  // no requester to NACK
    rec(trace_, obs::TraceKind::kFailover, arrival, 0, bank, spare);
    bank = spare;
    ++res.failovers;
  }
  const std::uint64_t scale =
      plan_ != nullptr ? plan_->busy_multiplier(bank, arrival) : 1;
  // serve(), not serve_addr(): a whole-line transfer neither keys the
  // bank-side word cache nor combines with word requests.
  const std::uint64_t served = banks_.serve(bank, arrival, scale);
  rec(trace_, obs::TraceKind::kWriteback, arrival, 0, line, bank);
  rec(trace_, obs::TraceKind::kBankBusy, banks_.last_start(),
      served - banks_.last_start(), bank, 0);
}

namespace {
std::shared_ptr<const mem::BankMapping> default_mapping(
    const MachineConfig& c) {
  return std::make_shared<mem::InterleavedMapping>(c.banks());
}
}  // namespace

Machine::Machine(MachineConfig config)
    : Machine(config, default_mapping(config)) {}

Machine::~Machine() = default;

void Machine::inject(std::shared_ptr<const fault::FaultPlan> plan) {
  if (plan && plan->num_banks() != config_.banks())
    raise(ErrorCode::kConfig,
          "Machine::inject: plan bank count does not match configuration");
  plan_ = std::move(plan);
}

namespace {
BulkResult unwrap(FaultyBulk&& out) {
  if (out.degraded) throw fault::DegradedError(std::move(*out.degraded));
  return out.bulk;
}
}  // namespace

BulkResult Machine::scatter(std::span<const std::uint64_t> addrs) {
  return unwrap(run(addrs, /*ids_are_banks=*/false));
}

FaultyBulk Machine::scatter_faulty(std::span<const std::uint64_t> addrs) {
  return run(addrs, /*ids_are_banks=*/false);
}

BulkResult Machine::scatter_detailed(std::span<const std::uint64_t> addrs,
                                     RequestTiming& timing) {
  const std::size_t n = addrs.size();
  // Pre-fill with the unserved sentinel: a request the fault path fails
  // keeps kUnserved in all five slots instead of a zero that reads as
  // "completed at cycle 0". Served requests overwrite every slot.
  timing.issue.assign(n, RequestTiming::kUnserved);
  timing.arrival.assign(n, RequestTiming::kUnserved);
  timing.start.assign(n, RequestTiming::kUnserved);
  timing.completion.assign(n, RequestTiming::kUnserved);
  timing.bank.assign(n, RequestTiming::kUnserved);
  return unwrap(run(addrs, /*ids_are_banks=*/false, &timing));
}

BulkResult Machine::scatter_banks(std::span<const std::uint64_t> banks) {
  return unwrap(run(banks, /*ids_are_banks=*/true));
}

std::span<const std::uint64_t> Machine::profile(
    std::span<const std::uint64_t> ids, bool ids_are_banks, BulkResult& res,
    std::span<const std::uint64_t>* combinable) {
  if (!state_) state_ = std::make_unique<Workspace>();
  util::ScratchArena& arena = state_->arena;
  const std::uint64_t nbanks = config_.banks();
  // Batched bank routing: ONE virtual dispatch per bulk op fills the
  // whole addr→bank route, replacing the per-event mapping_->bank_of
  // call of the reference engine. scatter_banks traffic routes itself.
  std::span<const std::uint64_t> route = ids;
  if (!ids_are_banks) {
    auto& banks = arena.vec<std::uint64_t>(kRouteSlot);
    banks.resize(ids.size());
    mapping_->bank_of_batch(ids, banks);
    route = banks;
  } else {
    // Caller-supplied bank ids are the only ones that can be out of
    // range (mappings are bank-count checked at construction); validate
    // once up front so the hot loop indexes unchecked.
    for (const std::uint64_t b : ids)
      if (b >= nbanks)
        raise(ErrorCode::kConfig, "Machine: bank id out of range");
  }
  // The route's per-bank tally is the pre-service mapped load; run_soa
  // reuses the counts.
  std::uint64_t* cnt = util::soa_plane(arena, kCntSlot, nbanks);
  std::fill(cnt, cnt + nbanks, 0);
  for (const std::uint64_t b : route) ++cnt[b];
  res.mapped_bank_load = *std::max_element(cnt, cnt + nbanks);
  // Location contention k and the distinct count over the requested ids.
  // scatter_banks ids are the banks, so the tally already holds both:
  // k is the hottest bank, distinct the banks requested at all.
  if (ids_are_banks) {
    res.max_location_contention = res.mapped_bank_load;
    res.distinct_locations = static_cast<std::uint64_t>(std::count_if(
        cnt, cnt + nbanks, [](std::uint64_t c) { return c != 0; }));
    return route;
  }
  // On a combining machine the count also lists the repeated addresses,
  // the only ones that can combine.
  std::vector<std::uint64_t>* repeated = nullptr;
  if (combinable != nullptr && config_.combine_requests)
    repeated = &arena.vec<std::uint64_t>(kRepeatSlot);
  const util::Multiplicity loc = contention_.count(ids, repeated);
  res.max_location_contention = loc.max;
  res.distinct_locations = loc.distinct;
  if (repeated != nullptr) *combinable = *repeated;
  return route;
}

FaultyBulk Machine::run(std::span<const std::uint64_t> ids,
                        bool ids_are_banks, RequestTiming* timing) {
  network_.reset();
  if (tier_ != nullptr) tier_->reset();

  FaultyBulk out;
  BulkResult& res = out.bulk;
  res.n = ids.size();
  if (ids.empty()) {
    banks_.reset();
    publish_bulk(res, 0, banks_, network_, tier_.get());
    return out;
  }

  FailTally tally;
  attr_.begin();
  // The access profile, once per op: route plane, tally, k, distinct,
  // and the addresses that can combine, which seed the bank array.
  std::span<const std::uint64_t> combinable;
  const std::span<const std::uint64_t> route =
      profile(ids, ids_are_banks, res, &combinable);
  banks_.reset(combinable);

  // Dispatch (docs/performance.md §selector): classify the op from O(1)
  // pre-dispatch features (or take the forced choice), and demote an
  // ineligible choice to the nearest exact strategy.
  EngineFeatures feat;
  feat.processors = config_.processors;
  feat.h_proc = util::ceil_div(res.n, config_.processors);
  feat.window = std::min(config_.slackness, feat.h_proc);
  feat.plan_fingerprint = plan_ != nullptr ? plan_->fingerprint() : 0;
  feat.eligible_dense = plan_ == nullptr && config_.slackness >= feat.h_proc;
  // The fused kernel also needs banks whose service is the plain FIFO
  // recurrence: combining, a bank cache or multi-port banks take the
  // dense walk instead, so a kSoA row always names the fused kernel.
  feat.eligible_soa = feat.eligible_dense &&
                      network_.model() == NetworkModel::kIdeal &&
                      tier_ == nullptr && trace_ == nullptr &&
                      timing == nullptr && banks_.batchable(!ids_are_banks);

  const obs::EngineChoice raw_choice = selector_.decide(feat);
  obs::EngineChoice choice = raw_choice;
  // The specialized paths are only exact under their eligibility
  // conditions; an infeasible (forced or mispredicted) choice falls back
  // to the nearest exact strategy instead of being trusted blindly.
  if (choice == obs::EngineChoice::kSoA && !feat.eligible_soa)
    choice = feat.eligible_dense ? obs::EngineChoice::kDense
                                 : obs::EngineChoice::kHeap;
  if (choice == obs::EngineChoice::kDense && !feat.eligible_dense)
    choice = obs::EngineChoice::kHeap;

  const std::uint64_t makespan =
      choice == obs::EngineChoice::kReference
          ? run_reference(ids, ids_are_banks, timing, res, tally)
          : run_calendar(ids, route, ids_are_banks, timing, res, tally,
                         choice);

  if (res.completed + tally.failed != res.n)
    raise(ErrorCode::kInternal, "Machine: request conservation violated");
  if (tally.failed > 0) {
    out.degraded = fault::DegradedResult{
        tally.failed, tally.first_elem, tally.first_attempts,
        std::string(tally.first_reason) +
            (" (" + std::to_string(tally.failed) + " of " +
             std::to_string(res.n) + " requests failed)")};
  }

  res.cycles = makespan;
  res.max_bank_load = banks_.max_load();
  res.port_conflicts = network_.port_conflicts();
  res.cache_hits = banks_.cache_hits();
  if (tier_ != nullptr) {
    res.cache_hits += tier_->hits();
    res.cache_misses = tier_->misses();
    res.cache_evictions = tier_->writebacks();
    res.max_proc_miss = tier_->max_proc_misses();
  }
  res.combined = banks_.combined();
  res.degraded_cycles = banks_.degraded_cycles();
  res.bank_utilization = bank_utilization_of(config_.bank_delay, res.n,
                                             config_.banks(), res.cycles);

  // Attribution (docs/observability.md): the per-bank load distribution
  // (served requests only — loads() never counts a NACK-failed or
  // combined slot) and the critical-event cost decomposition, whose
  // terms must reproduce the makespan exactly.
  for (const std::uint64_t load : banks_.loads())
    res.bank_sketch.observe(load);
  res.breakdown = attr_.breakdown();
  if (res.breakdown.total() != res.cycles)
    raise(ErrorCode::kInternal, "Machine: attribution identity violated");

  if (attr_agg_ != nullptr)
    attr_agg_->record(res.breakdown, res.bank_sketch,
                      res.max_location_contention, res.cycles);
  if (drift_ != nullptr) {
    obs::DriftSample s;
    s.track = drift_track_;
    s.step = superstep_seq_;
    s.cycles = res.cycles;
    s.n = res.n;
    s.h_proc = res.max_proc_requests;
    s.h_bank = res.max_bank_load;
    s.location_contention = res.max_location_contention;
    if (tier_ != nullptr) {
      s.cache_hits = tier_->hits();
      s.cache_misses = tier_->misses();
      s.h_proc_miss = tier_->max_proc_misses();
    }
    s.breakdown = res.breakdown;
    s.sketch_p50 = res.bank_sketch.p50();
    s.sketch_p99 = res.bank_sketch.p99();
    s.sketch_max = res.bank_sketch.max;
    s.mapping = ids_are_banks ? "(direct banks)" : mapping_->name();
    s.plan_fingerprint = plan_ != nullptr ? plan_->fingerprint() : 0;
    s.config = &config_;
    s.plan = plan_.get();
    drift_->observe(s);
  }
  if (selector_log_ != nullptr) {
    obs::SelectorRow row;
    row.track = selector_track_;
    row.step = superstep_seq_;
    row.n = res.n;
    row.h_proc = feat.h_proc;
    row.window = feat.window;
    row.plan_fingerprint = feat.plan_fingerprint;
    row.measured = res.cycles;
    row.eligible_dense = feat.eligible_dense;
    row.eligible_soa = feat.eligible_soa;
    row.forced = selector_.forced().has_value();
    row.fallback = choice != raw_choice;
    row.choice = choice;
    selector_log_->record(row);
  }
  ++superstep_seq_;

  rec(trace_, obs::TraceKind::kSuperstep, 0, makespan, res.n, 0);
  publish_bulk(res, tally.failed, banks_, network_, tier_.get());
  return out;
}

std::uint64_t Machine::run_reference(std::span<const std::uint64_t> ids,
                                     bool ids_are_banks,
                                     RequestTiming* timing, BulkResult& res,
                                     FailTally& tally) {
  const fault::FaultPlan* plan = plan_.get();
  const std::uint64_t p = config_.processors;
  const std::uint64_t n = ids.size();
  const std::uint64_t per = util::ceil_div(n, p);

  // Element index of request j of processor `proc` under the distribution.
  const bool block = config_.distribution == Distribution::kBlock;
  auto element_of = [&](std::uint64_t proc, std::uint64_t j) {
    return block ? proc * per + j : j * p + proc;
  };
  auto count_of = [&](std::uint64_t proc) -> std::uint64_t {
    if (block) {
      const std::uint64_t lo = proc * per;
      if (lo >= n) return 0;
      return std::min(per, n - lo);
    }
    return proc < n % p ? n / p + 1 : n / p;
  };

  // The cache tier is consulted on fresh issues only, and only when
  // requests carry addresses (scatter_banks has no address to cache).
  cache::CacheTier* const tier = ids_are_banks ? nullptr : tier_.get();
  const std::uint64_t hit_latency = config_.cache.hit_latency;
  const bool write_through =
      config_.cache.write == cache::WritePolicy::kThrough;

  std::vector<ProcState> procs(p);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  for (std::uint64_t i = 0; i < p; ++i) {
    procs[i].count = count_of(i);
    res.max_proc_requests = std::max(res.max_proc_requests, procs[i].count);
    if (procs[i].count == 0) continue;
    const std::uint64_t window =
        std::min<std::uint64_t>(config_.slackness, procs[i].count);
    procs[i].completions.assign(window, 0);
    // First request of every processor departs at time 0.
    heap.push(Event{0, 0, static_cast<std::uint32_t>(i), 0});
  }

  std::uint64_t makespan = 0;
  std::uint64_t events = 0;
  while (!heap.empty()) {
    // Cancellation point: poll the token every 4096 events (the deadline
    // check reads a clock, so not every iteration) and heartbeat it so
    // its stall window sees the loop moving. Abandoning mid-operation is
    // safe: bulk ops are pure, so a resume recomputes this one exactly.
    if (cancel_ != nullptr && (++events & 0xFFFU) == 0) {
      cancel_->heartbeat();
      cancel_->raise_if_expired("Machine::run");
    }
    const Event ev = heap.top();
    heap.pop();
    ProcState& ps = procs[ev.proc];
    const bool fresh = ev.attempt == 0;

    const std::uint64_t elem = fresh ? element_of(ev.proc, ps.issued) : ev.elem;
    const std::uint64_t addr = ids[elem];
    // j·g of a fresh issue: its position in the issue pipeline, the
    // issue_gap term of the cost attribution (retries recover theirs
    // from the origin recorded at their first NACK).
    const std::uint64_t fresh_gap = fresh ? ps.issued * config_.gap : 0;

    bool local_hit = false;
    std::uint64_t ack = 0;  // when the processor learns the outcome
    if (tier != nullptr && fresh) {
      const cache::CacheTier::Access acc = tier->access(ev.proc, addr);
      // Ordering contract: the victim's writeback enters the network
      // just ahead of the miss that displaced it (and a write-through
      // forward just ahead of nothing — the hit never leaves the CPU).
      if (acc.writeback)
        line_writeback(acc.victim_addr, ev.depart, ev.proc, true, res);
      if (acc.hit) {
        local_hit = true;
        if (write_through) line_writeback(addr, ev.depart, ev.proc, false, res);
        ack = ev.depart + hit_latency;
        ++res.completed;
        attr_.observe_cache_hit(ack, fresh_gap, ev.depart);
        rec(trace_, obs::TraceKind::kCacheHit, ev.depart, hit_latency, elem,
            ev.proc);
        if (timing != nullptr) {
          timing->issue[elem] = ev.depart;
          timing->arrival[elem] = ev.depart;
          timing->start[elem] = ev.depart;
          timing->completion[elem] = ack;
          timing->bank[elem] = RequestTiming::kUnserved;  // served locally
        }
      }
    }
    if (!local_hit) {
    std::uint64_t bank = ids_are_banks ? addr : mapping_->bank_of(addr);
    if (bank >= config_.banks())
      raise(ErrorCode::kConfig, "Machine: bank id out of range");

    const std::uint64_t arrival = network_.traverse(bank, ev.depart, ev.proc);

    // Fault handling at the memory system: a dead bank redirects to a
    // surviving spare (failover); an attempt may then be NACKed (drop),
    // which the processor recovers from by retry with backoff — or, once
    // the budget is spent, records as a failed request.
    bool served_ok = true;
    bool redirected = false;
    if (plan != nullptr) {
      const char* fail_reason = nullptr;
      if (plan->dead_at(bank, arrival)) {
        const std::uint64_t spare = plan->failover(bank, addr, arrival);
        if (spare == fault::kNoBank) {
          fail_reason = "no bank alive for failover";
        } else {
          rec(trace_, obs::TraceKind::kFailover, arrival, 0, bank, spare);
          bank = spare;
          ++res.failovers;
          redirected = true;
        }
      }
      if (fail_reason == nullptr && plan->drop(elem, ev.attempt)) {
        if (ev.attempt < plan->retry().max_retries) {
          // NACK travels back; the processor re-issues after backoff.
          ++res.nacks;
          rec(trace_, obs::TraceKind::kNack, arrival, 0, elem, ev.attempt);
          ack = network_.nack_return(arrival);
          if (fresh) attr_.note_origin(elem, fresh_gap, ev.depart);
          const std::uint64_t delay =
              plan->backoff_delay(elem, ev.attempt + 1);
          heap.push(Event{ack + delay, elem, ev.proc, ev.attempt + 1});
          ++res.retries;
          rec(trace_, obs::TraceKind::kRetry, ack + delay, 0, elem,
              ev.attempt + 1);
          served_ok = false;
        } else {
          fail_reason = "retry budget exhausted";
        }
      }
      if (fail_reason != nullptr) {
        ++res.nacks;
        rec(trace_, obs::TraceKind::kNack, arrival, 0, elem, ev.attempt);
        ack = network_.nack_return(arrival);
        if (tally.failed == 0) {
          tally.first_elem = elem;
          tally.first_attempts = ev.attempt + 1;
          tally.first_reason = fail_reason;
        }
        ++tally.failed;
        served_ok = false;
      }
    }

    if (served_ok) {
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          // Backlog the request finds at its bank (cycles until a port
          // frees), sampled as a counter series per bank.
          const std::uint64_t free = banks_.free_at(bank);
          rec(trace_, obs::TraceKind::kQueueDepth, arrival, 0, bank,
              free > arrival ? free - arrival : 0);
        }
      }
      const std::uint64_t scale =
          plan != nullptr ? plan->busy_multiplier(bank, arrival) : 1;
      // Address-aware service applies bank caching/combining; the
      // banks-only path (scatter_banks) has no address to key them on.
      const std::uint64_t served =
          ids_are_banks ? banks_.serve(bank, arrival, scale)
                        : banks_.serve_addr(bank, arrival, addr, scale);
      ack = served + config_.latency;
      ++res.completed;
      attr_.observe_served(ack, fresh, elem, fresh_gap, ev.depart, arrival,
                           served, config_.latency, redirected);
      // A combined request occupies no bank slot, so no busy span.
      if (!banks_.last_combined())
        rec(trace_, obs::TraceKind::kBankBusy, banks_.last_start(),
            served - banks_.last_start(), bank, 0);

      if (timing != nullptr) {
        timing->issue[elem] = ev.depart;
        timing->arrival[elem] = arrival;
        timing->start[elem] = banks_.last_start();
        timing->completion[elem] = ack;
        timing->bank[elem] = bank;
      }
    } else {
      attr_.observe_unserved(ack, fresh, elem, fresh_gap, ev.depart);
    }
    }  // !local_hit
    makespan = std::max(makespan, ack);

    // Only fresh issues advance the processor's issue pipeline; retries
    // are re-injections of an already-issued request. A NACKed fresh
    // issue frees its outstanding-window slot when the NACK returns.
    if (fresh) {
      const std::uint64_t window = ps.completions.size();
      ps.completions[ps.issued % window] = ack;
      ps.last_issue = ev.depart;
      ++ps.issued;

      if (ps.issued < ps.count) {
        // Next issue waits for the gap and, if the outstanding window is
        // full, for the request `window` places back to complete.
        std::uint64_t next = ps.last_issue + config_.gap;
        if (ps.issued >= window) {
          const std::uint64_t gate = ps.completions[ps.issued % window];
          if (gate > next) {
            ps.stall += gate - next;
            rec(trace_, obs::TraceKind::kStall, next, gate - next, ev.proc,
                0);
            next = gate;
          }
        }
        heap.push(Event{next, 0, ev.proc, 0});
      }
    }
  }

  for (const auto& ps : procs) {
    res.stall_cycles += ps.stall;
    res.last_issue = std::max(res.last_issue, ps.last_issue);
  }
  return makespan;
}

std::uint64_t Machine::run_calendar(std::span<const std::uint64_t> ids,
                                    std::span<const std::uint64_t> route,
                                    bool ids_are_banks,
                                    RequestTiming* timing, BulkResult& res,
                                    FailTally& tally,
                                    obs::EngineChoice choice) {
  const fault::FaultPlan* plan = plan_.get();
  const std::uint64_t p = config_.processors;
  const std::uint64_t n = ids.size();
  const std::uint64_t per = util::ceil_div(n, p);
  const std::uint64_t latency = config_.latency;
  const bool block = config_.distribution == Distribution::kBlock;

  auto element_of = [&](std::uint64_t proc, std::uint64_t j) {
    return block ? proc * per + j : j * p + proc;
  };
  auto count_of = [&](std::uint64_t proc) -> std::uint64_t {
    if (block) {
      const std::uint64_t lo = proc * per;
      if (lo >= n) return 0;
      return std::min(per, n - lo);
    }
    return proc < n % p ? n / p + 1 : n / p;
  };

  if (!state_) state_ = std::make_unique<Workspace>();
  Workspace& st = *state_;

  // Cache tier, mirroring run_reference: fresh issues only, addresses
  // only. Tag updates happen in pop order in both engines, so hit/miss
  // outcomes are bit-identical.
  cache::CacheTier* const tier = ids_are_banks ? nullptr : tier_.get();
  const std::uint64_t hit_latency = config_.cache.hit_latency;
  const bool write_through =
      config_.cache.write == cache::WritePolicy::kThrough;

  auto& procs = st.arena.vec<ProcFlat>();
  procs.assign(p, ProcFlat{});
  std::uint64_t ring_total = 0;
  std::uint64_t max_count = 0;
  for (std::uint64_t i = 0; i < p; ++i) {
    const std::uint64_t cnt = count_of(i);
    procs[i].count = cnt;
    max_count = std::max(max_count, cnt);
    const std::uint64_t window = std::min(config_.slackness, cnt);
    procs[i].window = window;
    procs[i].ring_off = ring_total;
    ring_total += window;
  }
  res.max_proc_requests = max_count;

  std::uint64_t makespan = 0;
  const std::uint64_t g = config_.gap;

  // One request's life, shared by the scheduled loops, the dense walk
  // and the SoA per-element leg: cache tier, route, network, fault
  // handling, bank service, attribution latch, trace records and timing
  // slots. `fresh_gap` is j·g for a fresh issue (0 for a retry). Returns
  // when the processor learns the outcome; a NACKed attempt with retry
  // budget left is re-queued on the scheduler `choice` names (only the
  // scheduled loops run with a fault plan). kNoObs: tier, tracer and
  // timing are folded away at compile time.
  const auto step = [&](auto no_obs_c, const Event& ev, std::uint64_t elem,
                        std::uint64_t fresh_gap) -> std::uint64_t {
    constexpr bool kNoObs = decltype(no_obs_c)::value;
    obs::TraceRing* const tr = kNoObs ? nullptr : trace_;
    RequestTiming* const tm = kNoObs ? nullptr : timing;
    cache::CacheTier* const tierp = kNoObs ? nullptr : tier;
    const bool fresh = ev.attempt == 0;
    const std::uint64_t addr = ids[elem];

    if (tierp != nullptr && fresh) {
      const cache::CacheTier::Access acc = tierp->access(ev.proc, addr);
      if (acc.writeback)
        line_writeback(acc.victim_addr, ev.depart, ev.proc, true, res);
      if (acc.hit) {
        if (write_through) line_writeback(addr, ev.depart, ev.proc, false, res);
        const std::uint64_t ack = ev.depart + hit_latency;
        ++res.completed;
        attr_.observe_cache_hit(ack, fresh_gap, ev.depart);
        rec(tr, obs::TraceKind::kCacheHit, ev.depart, hit_latency, elem,
            ev.proc);
        if (tm != nullptr) {
          tm->issue[elem] = ev.depart;
          tm->arrival[elem] = ev.depart;
          tm->start[elem] = ev.depart;
          tm->completion[elem] = ack;
          tm->bank[elem] = RequestTiming::kUnserved;  // served locally
        }
        return ack;
      }
    }

    std::uint64_t bank = route[elem];
    const std::uint64_t arrival = network_.traverse(bank, ev.depart, ev.proc);
    bool redirected = false;
    if (plan != nullptr) {
      const char* fail_reason = nullptr;
      if (plan->dead_at(bank, arrival)) {
        const std::uint64_t spare = plan->failover(bank, addr, arrival);
        if (spare == fault::kNoBank) {
          fail_reason = "no bank alive for failover";
        } else {
          rec(tr, obs::TraceKind::kFailover, arrival, 0, bank, spare);
          bank = spare;
          ++res.failovers;
          redirected = true;
        }
      }
      if (fail_reason == nullptr && plan->drop(elem, ev.attempt)) {
        if (ev.attempt < plan->retry().max_retries) {
          ++res.nacks;
          rec(tr, obs::TraceKind::kNack, arrival, 0, elem, ev.attempt);
          const std::uint64_t ack = network_.nack_return(arrival);
          if (fresh) attr_.note_origin(elem, fresh_gap, ev.depart);
          const Event retry{ack + plan->backoff_delay(elem, ev.attempt + 1),
                            elem, ev.proc, ev.attempt + 1};
          if (choice == obs::EngineChoice::kHeap) {
            st.heap.push(retry);
          } else {
            st.queue.push(retry);
          }
          ++res.retries;
          rec(tr, obs::TraceKind::kRetry, retry.depart, 0, elem,
              retry.attempt);
          attr_.observe_unserved(ack, fresh, elem, fresh_gap, ev.depart);
          return ack;
        }
        fail_reason = "retry budget exhausted";
      }
      if (fail_reason != nullptr) {
        ++res.nacks;
        rec(tr, obs::TraceKind::kNack, arrival, 0, elem, ev.attempt);
        const std::uint64_t ack = network_.nack_return(arrival);
        if (tally.failed == 0) {
          tally.first_elem = elem;
          tally.first_attempts = ev.attempt + 1;
          tally.first_reason = fail_reason;
        }
        ++tally.failed;
        attr_.observe_unserved(ack, fresh, elem, fresh_gap, ev.depart);
        return ack;
      }
    }

    if constexpr (obs::kTraceCompiledIn && !kNoObs) {
      if (tr != nullptr) {
        const std::uint64_t free = banks_.free_at(bank);
        rec(tr, obs::TraceKind::kQueueDepth, arrival, 0, bank,
            free > arrival ? free - arrival : 0);
      }
    }
    const std::uint64_t scale =
        plan != nullptr ? plan->busy_multiplier(bank, arrival) : 1;
    const std::uint64_t served =
        ids_are_banks ? banks_.serve(bank, arrival, scale)
                      : banks_.serve_addr(bank, arrival, addr, scale);
    const std::uint64_t ack = served + latency;
    ++res.completed;
    attr_.observe_served(ack, fresh, elem, fresh_gap, ev.depart, arrival,
                         served, latency, redirected);
    if (!banks_.last_combined())
      rec(tr, obs::TraceKind::kBankBusy, banks_.last_start(),
          served - banks_.last_start(), bank, 0);
    if (tm != nullptr) {
      tm->issue[elem] = ev.depart;
      tm->arrival[elem] = arrival;
      tm->start[elem] = banks_.last_start();
      tm->completion[elem] = ack;
      tm->bank[elem] = bank;
    }
    return ack;
  };

  if (choice == obs::EngineChoice::kSoA)
    return run_soa(route, res, max_count);

  if (choice == obs::EngineChoice::kDense) {
    // Dense walk. With no fault plan there are no retries, and with the
    // outstanding window never binding (S >= every per-proc count) every
    // issue departs exactly `gap` after the previous one, so
    // for_each_in_pop_order reproduces the scheduler's pop order and the
    // scheduler itself — and the completion rings — can be skipped:
    // request j of a processor departs at j·g as attempt 0. Bit-identical
    // results, traces and cancellation cadence to the scheduled loops.
    const auto walk = [&](auto no_obs_c) {
      for_each_in_pop_order(block, n, p, cancel_,
                            [&](std::uint64_t elem, std::uint64_t proc,
                                std::uint64_t j) {
        const Event ev{j * g, elem, static_cast<std::uint32_t>(proc), 0};
        makespan = std::max(makespan, step(no_obs_c, ev, elem, ev.depart));
      });
      res.last_issue = (max_count - 1) * g;
      return makespan;
    };
    if (tier == nullptr && trace_ == nullptr && timing == nullptr)
      return walk(std::true_type{});
    return walk(std::false_type{});
  }

  // Specialization eligibility for the scheduled loop below.
  const bool no_obs = tier == nullptr && trace_ == nullptr && timing == nullptr;
  const bool no_ring = no_obs && config_.slackness >= max_count;

  // Ring slot j % window is written at issue j and first read at issue
  // j + window, so stale contents from the previous bulk op are never
  // observed — resize without zeroing. The kNoRing specialization never
  // touches the rings at all.
  auto& rings = st.arena.vec<std::uint64_t>(kRingSlot);
  if (!no_ring && rings.size() < ring_total)
    rings.resize(static_cast<std::size_t>(ring_total));

  // General path, scheduled by either the calendar wheel (kCalendar) or
  // the binary heap (kHeap): pop order is identical — the total Event
  // order — so the queue choice is pure performance
  // (util/calendar_queue.hpp; EventHeap above). Retry backoffs beyond
  // the wheel horizon take the calendar queue's internal heap fallback.
  //
  // Two compile-time specializations shave the per-event constant
  // without touching pop order or results, whether or not the strategy
  // was forced:
  //   kNoObs:  tier, tracer and timing are null for this op — fold the
  //            observability branches away entirely.
  //   kNoRing: S >= every per-processor count, so the outstanding
  //            window provably never gates an issue — skip the
  //            completion-ring writes (the only random-access store on
  //            the fresh-issue path).
  auto scheduled = [&](auto& q, auto no_obs_c, auto no_ring_c)
      -> std::uint64_t {
  constexpr bool kNoRing = decltype(no_ring_c)::value;
  obs::TraceRing* const tr = decltype(no_obs_c)::value ? nullptr : trace_;
  q.reset();
  for (std::uint64_t i = 0; i < p; ++i)
    if (procs[i].count > 0)
      q.push(Event{0, 0, static_cast<std::uint32_t>(i), 0});

  std::uint64_t events = 0;
  while (!q.empty()) {
    if (cancel_ != nullptr && (++events & 0xFFFU) == 0) {
      cancel_->heartbeat();
      cancel_->raise_if_expired("Machine::run");
    }
    const Event ev = q.pop();
    ProcFlat& ps = procs[ev.proc];
    const bool fresh = ev.attempt == 0;
    const std::uint64_t elem = fresh ? element_of(ev.proc, ps.issued) : ev.elem;
    const std::uint64_t ack =
        step(no_obs_c, ev, elem, fresh ? ps.issued * g : 0);
    makespan = std::max(makespan, ack);

    if (fresh) {
      if constexpr (!kNoRing) {
        rings[ps.ring_off + ps.issued % ps.window] = ack;
      }
      ps.last_issue = ev.depart;
      ++ps.issued;

      if (ps.issued < ps.count) {
        std::uint64_t next = ps.last_issue + g;
        if constexpr (!kNoRing) {
          if (ps.issued >= ps.window) {
            const std::uint64_t gate =
                rings[ps.ring_off + ps.issued % ps.window];
            if (gate > next) {
              ps.stall += gate - next;
              rec(tr, obs::TraceKind::kStall, next, gate - next, ev.proc,
                  0);
              next = gate;
            }
          }
        }
        q.push(Event{next, 0, ev.proc, 0});
      }
    }
  }

  for (const auto& ps : procs) {
    res.stall_cycles += ps.stall;
    res.last_issue = std::max(res.last_issue, ps.last_issue);
  }
  return makespan;
  };  // scheduled

  const auto run_q = [&](auto no_obs_c, auto no_ring_c) {
    if (choice == obs::EngineChoice::kHeap)
      return scheduled(st.heap, no_obs_c, no_ring_c);
    return scheduled(st.queue, no_obs_c, no_ring_c);
  };
  if (no_ring) return run_q(std::true_type{}, std::true_type{});
  if (no_obs) return run_q(std::true_type{}, std::false_type{});
  return run_q(std::false_type{}, std::false_type{});
}

std::uint64_t Machine::run_soa(std::span<const std::uint64_t> route,
                               BulkResult& res, std::uint64_t max_count) {
  // SoA fused free-chain kernel (docs/performance.md §soa). Eligibility,
  // checked by run() (EngineFeatures::eligible_soa): no fault plan,
  // window never binds, ideal network, no cache tier, no tracer, no
  // per-request timing, batchable banks. Under those conditions processor P's j-th
  // request departs at exactly j·g and arrives at j·g + L, and the FIFO
  // recurrence fin = max(arrival, free[b]) + d is bank-local, so one
  // pop-order pass over the route plane and the per-bank free-time array
  // computes every completion. The strict-> latch keeps the FIRST
  // pop-order max, the same request every event engine latches.
  // Bit-identical to the dense walk.
  const std::uint64_t n = route.size();
  const std::uint64_t p = config_.processors;
  const std::uint64_t g = config_.gap;
  const std::uint64_t latency = config_.latency;
  const std::uint64_t d = banks_.delay();
  const bool block = config_.distribution == Distribution::kBlock;

  std::uint64_t best = 0;       // critical completion time
  std::uint64_t best_elem = 0;  // its element id
  std::uint64_t best_arr = 0;   // its bank arrival
  std::uint64_t* chain = banks_.open_chain();
  std::uint64_t fin = 0;
  for_each_in_pop_order(block, n, p, cancel_,
                        [&](std::uint64_t elem, std::uint64_t,
                            std::uint64_t j) {
    const std::uint64_t arrival = j * g + latency;
    const std::uint64_t b = route[elem];
    const std::uint64_t f = chain[b];
    fin = (arrival > f ? arrival : f) + d;
    chain[b] = fin;
    if (fin > best) {
      best = fin;
      best_elem = elem;
      best_arr = arrival;
    }
  });
  // Per-bank counts, left in the count plane by profile(), feed
  // BankArray's load counters.
  banks_.finish_chain(
      util::soa_plane(state_->arena, kCntSlot, config_.banks()), n, fin - d);

  const std::uint64_t makespan = best + latency;
  attr_.observe_served(makespan, /*fresh=*/true, best_elem,
                       best_arr - latency, best_arr - latency, best_arr, best,
                       latency, /*redirected=*/false);
  res.completed += n;
  res.last_issue = (max_count - 1) * g;
  return makespan;
}

BulkResult Machine::scatter_bulk_delivery(
    std::span<const std::uint64_t> addrs) {
  banks_.reset();  // serve() only: nothing combines
  network_.reset();

  BulkResult res;
  res.n = addrs.size();
  if (addrs.empty()) {
    publish_bulk(res, 0, banks_, network_);
    return res;
  }

  // Every request materializes at its bank at time L, in index order;
  // there is no issue pipelining and no slackness limit. This models the
  // BSP assumption that an h-relation is simply "delivered".
  std::uint64_t makespan = 0;
  const std::span<const std::uint64_t> route =
      profile(addrs, /*ids_are_banks=*/false, res);
  std::uint64_t events = 0;
  for (const std::uint64_t bank : route) {
    if (cancel_ != nullptr && (++events & 0xFFFU) == 0) {
      cancel_->heartbeat();
      cancel_->raise_if_expired("Machine::scatter_bulk_delivery");
    }
    const std::uint64_t served = banks_.serve(bank, config_.latency);
    makespan = std::max(makespan, served + config_.latency);
  }

  const std::uint64_t per = util::ceil_div(res.n, config_.processors);
  res.cycles = makespan;
  res.completed = res.n;
  res.max_bank_load = banks_.max_load();
  res.max_proc_requests = per;
  res.bank_utilization = bank_utilization_of(config_.bank_delay, res.n,
                                             config_.banks(), res.cycles);
  // Attribution of the ablation: no issue pipeline, so the critical
  // request's lifetime is exactly wire-out + bank queue/service +
  // wire-back (makespan >= 2L holds because every request arrives at L).
  for (const std::uint64_t load : banks_.loads())
    res.bank_sketch.observe(load);
  res.breakdown.latency = 2 * config_.latency;
  res.breakdown.bank_service = makespan - 2 * config_.latency;
  rec(trace_, obs::TraceKind::kSuperstep, 0, makespan, res.n, 0);
  publish_bulk(res, 0, banks_, network_);
  return res;
}

std::uint64_t Machine::compute(std::uint64_t n_elements,
                               double ops_per_element) const {
  if (n_elements == 0 || ops_per_element <= 0.0) return 0;
  const std::uint64_t per = util::ceil_div(n_elements, config_.processors);
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(per) * ops_per_element));
}

}  // namespace dxbsp::sim
