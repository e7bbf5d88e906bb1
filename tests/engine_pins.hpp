#pragma once
// The engine pins a differential test runs: every obs::EngineChoice
// forced through sim::EngineSelector::force(), plus the unforced
// selector. Tests build one Machine per pin and diff each against the
// forced kReference oracle (docs/performance.md §selector). A pin the
// scenario makes ineligible is demoted by the Machine and diffed all
// the same.

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/selector.hpp"
#include "sim/machine.hpp"

namespace dxbsp::testing_pins {

using Pin = std::optional<obs::EngineChoice>;

/// The oracle (forced kReference) first, then every other choice, then
/// unforced.
inline constexpr std::array<Pin, obs::kEngineChoices + 1> kPins = {
    obs::EngineChoice::kReference, obs::EngineChoice::kCalendar,
    obs::EngineChoice::kDense,     obs::EngineChoice::kHeap,
    obs::EngineChoice::kSoA,       std::nullopt};

inline std::string pin_name(Pin pin) {
  return pin ? obs::engine_choice_name(*pin) : "unforced";
}

/// One Machine per pin, in kPins order (so the oracle is front()), each
/// built by `make()` and then pinned.
template <typename Make>
std::vector<std::unique_ptr<sim::Machine>> pinned_machines(const Make& make) {
  std::vector<std::unique_ptr<sim::Machine>> out;
  for (const Pin pin : kPins) {
    out.push_back(make());
    out.back()->selector().force(pin);
  }
  return out;
}

}  // namespace dxbsp::testing_pins
