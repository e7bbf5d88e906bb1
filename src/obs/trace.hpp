#pragma once
// Cycle-level event tracer for the simulator (docs/observability.md).
//
// A Tracer owns one TraceRing per *track*; a track corresponds to one
// simulated bulk operation / sweep point and is written by exactly one
// thread at a time (SweepRunner gives each point its own track), so the
// hot recording path is lock-free and allocation-free: a bounded ring
// that overwrites its oldest events when full and counts the drops.
// Buffers are drained post-run into Chrome trace_event JSON, loadable in
// Perfetto / chrome://tracing (one "process" lane per track; simulated
// cycles stand in for microseconds).
//
// Determinism: recording within a track follows the (deterministic)
// simulation; the writer emits tracks in ascending id order. The JSON is
// therefore byte-identical no matter how sweep points were interleaved
// across threads.
//
// Zero-cost when off: compile with -DDXBSP_OBS_TRACE=0 and every record
// site (guarded by `if constexpr (kTraceCompiledIn)`) compiles away.
// With tracing compiled in but not requested, the only cost is one
// null-pointer test per would-be event.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#ifndef DXBSP_OBS_TRACE
#define DXBSP_OBS_TRACE 1
#endif

namespace dxbsp::obs {

inline constexpr bool kTraceCompiledIn = DXBSP_OBS_TRACE != 0;

enum class TraceKind : std::uint8_t {
  kSuperstep,   ///< span [0, makespan] of one bulk op; a = requests
  kBankBusy,    ///< span: one bank service occupancy; a = bank
  kQueueDepth,  ///< counter sample: a = bank, b = backlog cycles at arrival
  kStall,       ///< span: processor issue window full; a = processor
  kNack,        ///< instant: attempt rejected; a = element, b = attempt
  kRetry,       ///< instant: re-issue scheduled; a = element, b = attempt
  kFailover,    ///< instant: redirected off a dead bank; a = bank, b = spare
  kSpill,       ///< span: one spill-chunk write (ts/dur in slab sequence
                ///< numbers, the streaming executor's clock); a = partition,
                ///< b = bytes
  kBackPressure,///< span: producer stalled over-budget while partitions
                ///< evicted (slab-sequence clock); a = victim partition,
                ///< b = bytes freed
  kCacheHit,    ///< span: request served in the processor's cache tier
                ///< (docs/cache.md); a = element, b = processor
  kWriteback,   ///< instant: fire-and-forget line write to a bank (dirty
                ///< eviction or write-through forward); a = line, b = bank
};
inline constexpr std::size_t kTraceKinds = 11;

[[nodiscard]] const char* trace_kind_name(TraceKind k) noexcept;

struct TraceEvent {
  std::uint64_t ts = 0;   ///< simulated cycle
  std::uint64_t dur = 0;  ///< span length (0 for instants/samples)
  std::uint64_t a = 0;    ///< kind-specific (see TraceKind)
  std::uint64_t b = 0;
  TraceKind kind = TraceKind::kSuperstep;
};

/// Bounded single-writer event buffer. Per-kind totals are counted
/// outside the ring, so aggregate counts survive even when old events
/// are overwritten — the reconciliation tests rely on that.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void record(const TraceEvent& ev) noexcept {
    ++counts_[static_cast<std::size_t>(ev.kind)];
    if (events_.size() < capacity_) {
      events_.push_back(ev);
    } else {
      events_[head_] = ev;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> drain() const;

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  /// Total recorded events of `k` (including ones later overwritten).
  [[nodiscard]] std::uint64_t count(TraceKind k) const noexcept {
    return counts_[static_cast<std::size_t>(k)];
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest event once the ring wrapped
  std::uint64_t dropped_ = 0;
  std::uint64_t counts_[kTraceKinds] = {};
  std::vector<TraceEvent> events_;
};

class Tracer {
 public:
  /// `ring_capacity` bounds the retained events per track.
  explicit Tracer(std::size_t ring_capacity = std::size_t{1} << 16);

  /// Looks up or creates the ring for `track_id`. Creation takes a
  /// mutex; the returned reference is stable for the Tracer's lifetime
  /// and must be written by one thread at a time.
  TraceRing& track(std::uint64_t track_id);

  [[nodiscard]] std::vector<std::uint64_t> track_ids() const;
  [[nodiscard]] const TraceRing* find(std::uint64_t track_id) const;

  [[nodiscard]] std::uint64_t total_recorded() const;
  /// Sum of count(k) over all tracks.
  [[nodiscard]] std::uint64_t total_count(TraceKind k) const;

  /// Chrome trace_event JSON (object form, "traceEvents" array): "X"
  /// complete events for spans, "C" counters for queue depth, "i"
  /// instants for fault events. pid = track id; tid lanes separate the
  /// superstep (0), processors (1 + proc) and banks (10000 + bank).
  void write_chrome_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::map<std::uint64_t, std::unique_ptr<TraceRing>> tracks_;
};

}  // namespace dxbsp::obs
