#include "obs/trace.hpp"

#include "obs/json.hpp"
#include "resilience/error.hpp"

namespace dxbsp::obs {

const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kSuperstep:
      return "superstep";
    case TraceKind::kBankBusy:
      return "bank_busy";
    case TraceKind::kQueueDepth:
      return "queue_depth";
    case TraceKind::kStall:
      return "stall";
    case TraceKind::kNack:
      return "nack";
    case TraceKind::kRetry:
      return "retry";
    case TraceKind::kFailover:
      return "failover";
    case TraceKind::kSpill:
      return "spill";
    case TraceKind::kBackPressure:
      return "back_pressure";
    case TraceKind::kCacheHit:
      return "cache_hit";
    case TraceKind::kWriteback:
      return "writeback";
  }
  return "?";
}

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0)
    raise(ErrorCode::kConfig, "TraceRing: capacity must be positive");
  events_.reserve(capacity_);
}

std::vector<TraceEvent> TraceRing::drain() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i)
    out.push_back(events_[(head_ + i) % events_.size()]);
  return out;
}

std::uint64_t TraceRing::recorded() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts_) total += c;
  return total;
}

Tracer::Tracer(std::size_t ring_capacity) : capacity_(ring_capacity) {
  if (capacity_ == 0)
    raise(ErrorCode::kConfig, "Tracer: ring capacity must be positive");
}

TraceRing& Tracer::track(std::uint64_t track_id) {
  std::lock_guard lock(mu_);
  auto it = tracks_.find(track_id);
  if (it == tracks_.end())
    it = tracks_.emplace(track_id, std::make_unique<TraceRing>(capacity_))
             .first;
  return *it->second;
}

std::vector<std::uint64_t> Tracer::track_ids() const {
  std::lock_guard lock(mu_);
  std::vector<std::uint64_t> out;
  out.reserve(tracks_.size());
  for (const auto& [id, ring] : tracks_) out.push_back(id);
  return out;
}

const TraceRing* Tracer::find(std::uint64_t track_id) const {
  std::lock_guard lock(mu_);
  const auto it = tracks_.find(track_id);
  return it == tracks_.end() ? nullptr : it->second.get();
}

std::uint64_t Tracer::total_recorded() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, ring] : tracks_) total += ring->recorded();
  return total;
}

std::uint64_t Tracer::total_count(TraceKind k) const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, ring] : tracks_) total += ring->count(k);
  return total;
}

namespace {

// tid lanes within a track: superstep + fault instants on 0, processor
// spans on 1 + proc, bank spans/counters on 10000 + bank.
constexpr std::uint64_t kBankLaneBase = 10000;

void write_event(JsonWriter& w, std::uint64_t pid, const TraceEvent& ev) {
  w.begin_object();
  w.member("name", trace_kind_name(ev.kind));
  w.member("cat", "sim");
  w.member("pid", pid);
  w.member("ts", ev.ts);
  switch (ev.kind) {
    case TraceKind::kSuperstep:
      w.member("ph", "X");
      w.member("tid", std::uint64_t{0});
      w.member("dur", ev.dur);
      w.key("args").begin_object();
      w.member("requests", ev.a);
      w.end_object();
      break;
    case TraceKind::kBankBusy:
      w.member("ph", "X");
      w.member("tid", kBankLaneBase + ev.a);
      w.member("dur", ev.dur);
      w.key("args").begin_object();
      w.member("bank", ev.a);
      w.end_object();
      break;
    case TraceKind::kQueueDepth:
      w.member("ph", "C");
      w.member("tid", kBankLaneBase + ev.a);
      w.key("args").begin_object();
      w.member("backlog_cycles", ev.b);
      w.end_object();
      break;
    case TraceKind::kStall:
      w.member("ph", "X");
      w.member("tid", 1 + ev.a);
      w.member("dur", ev.dur);
      w.key("args").begin_object();
      w.member("proc", ev.a);
      w.end_object();
      break;
    case TraceKind::kNack:
    case TraceKind::kRetry:
      w.member("ph", "i");
      w.member("tid", std::uint64_t{0});
      w.member("s", "p");
      w.key("args").begin_object();
      w.member("element", ev.a);
      w.member("attempt", ev.b);
      w.end_object();
      break;
    case TraceKind::kFailover:
      w.member("ph", "i");
      w.member("tid", std::uint64_t{0});
      w.member("s", "p");
      w.key("args").begin_object();
      w.member("bank", ev.a);
      w.member("spare", ev.b);
      w.end_object();
      break;
    case TraceKind::kSpill:
    case TraceKind::kBackPressure:
      // Streaming-executor spans: the "clock" is the slab sequence
      // number, one lane for the whole spill tier.
      w.member("ph", "X");
      w.member("tid", kBankLaneBase * 2);
      w.member("dur", ev.dur);
      w.key("args").begin_object();
      w.member("partition", ev.a);
      w.member("bytes", ev.b);
      w.end_object();
      break;
    case TraceKind::kCacheHit:
      // Local service in the cache tier, on the processor's lane.
      w.member("ph", "X");
      w.member("tid", 1 + ev.b);
      w.member("dur", ev.dur);
      w.key("args").begin_object();
      w.member("element", ev.a);
      w.end_object();
      break;
    case TraceKind::kWriteback:
      w.member("ph", "i");
      w.member("tid", kBankLaneBase + ev.b);
      w.member("s", "p");
      w.key("args").begin_object();
      w.member("line", ev.a);
      w.member("bank", ev.b);
      w.end_object();
      break;
  }
  w.end_object();
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& [id, ring] : tracks_) {  // std::map: ascending track id
    for (const TraceEvent& ev : ring->drain()) write_event(w, id, ev);
  }
  w.end_array();
  w.member("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.member("generator", "dxbsp");
  w.member("time_unit", "simulated cycles (as trace microseconds)");
  {
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    for (const auto& [id, ring] : tracks_) {
      recorded += ring->recorded();
      dropped += ring->dropped();
    }
    w.member("events_recorded", recorded);
    w.member("events_dropped", dropped);
  }
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace dxbsp::obs
