#include "sim/engine_select.hpp"

namespace dxbsp::sim {

obs::EngineChoice EngineSelector::decide(const EngineFeatures& f) const {
  if (forced_) return *forced_;
  // The specialized fast paths, when exact, always beat a scheduler:
  // they skip the event queue entirely.
  if (f.eligible_soa) return obs::EngineChoice::kSoA;
  if (f.eligible_dense) return obs::EngineChoice::kDense;
  // General (scheduled) path: choose the queue by live-event
  // population. Tight windows keep at most p·window events in flight —
  // the binary heap's compact layout beats the wheel's bucket
  // bookkeeping at that scale. Large windows put thousands of
  // near-monotone events in flight, the regime the calendar wheel is
  // built for; that holds under fault plans too (retry backoffs pile
  // thousands of far-future events, which the wheel spreads across
  // buckets while a heap pays log(live) moves on every one).
  if (f.processors * f.window <= kHeapEventLimit)
    return obs::EngineChoice::kHeap;
  return obs::EngineChoice::kCalendar;
}

}  // namespace dxbsp::sim
