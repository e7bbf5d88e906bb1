#include "obs/selector.hpp"

#include <algorithm>
#include <tuple>

namespace dxbsp::obs {

const char* engine_choice_name(EngineChoice c) noexcept {
  switch (c) {
    case EngineChoice::kReference: return "reference";
    case EngineChoice::kCalendar: return "calendar";
    case EngineChoice::kDense: return "dense";
    case EngineChoice::kHeap: return "heap";
    case EngineChoice::kSoA: return "soa";
  }
  return "?";
}

bool selector_row_less(const SelectorRow& a, const SelectorRow& b) noexcept {
  const auto key = [](const SelectorRow& r) {
    return std::make_tuple(r.track, r.step, r.n, r.h_proc, r.window,
                           r.plan_fingerprint, r.measured, r.eligible_dense,
                           r.eligible_soa, r.forced, r.fallback,
                           static_cast<std::uint8_t>(r.choice));
  };
  return key(a) < key(b);
}

SelectorLog::Snapshot SelectorLog::snapshot() const {
  Snapshot s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.rows = rows_;
  }
  std::sort(s.rows.begin(), s.rows.end(), selector_row_less);
  return s;
}

}  // namespace dxbsp::obs
