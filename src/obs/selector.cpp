#include "obs/selector.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "obs/json.hpp"
#include "obs/json_read.hpp"

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

// One "rows" item, internal to this file like the sketch codec in
// attribution.cpp. `choice` travels by engine_choice_name; the reader
// rejects a name it does not know.
static void write_json(JsonWriter& w, const SelectorRow& r) {
  w.member("track", r.track);
  w.member("step", r.step);
  w.member("choice", engine_choice_name(r.choice));
  w.member("n", r.n);
  w.member("h_proc", r.h_proc);
  w.member("window", r.window);
  w.member("fault_plan_fingerprint", r.plan_fingerprint);
  w.member("eligible_dense", r.eligible_dense);
  w.member("eligible_soa", r.eligible_soa);
  w.member("forced", r.forced);
  w.member("fallback", r.fallback);
  w.member("measured_cycles", r.measured);
}

static void read_json(JsonDecoder& d, SelectorRow& r) {
  r.track = d.u64("track");
  r.step = d.u64("step");
  const std::string choice = d.str("choice");
  r.n = d.u64("n");
  r.h_proc = d.u64("h_proc");
  r.window = d.u64("window");
  r.plan_fingerprint = d.u64("fault_plan_fingerprint");
  r.eligible_dense = d.boolean("eligible_dense");
  r.eligible_soa = d.boolean("eligible_soa");
  r.forced = d.boolean("forced");
  r.fallback = d.boolean("fallback");
  r.measured = d.u64("measured_cycles");
  std::size_t c = 0;
  while (c < kEngineChoices &&
         choice != engine_choice_name(static_cast<EngineChoice>(c)))
    ++c;
  if (c == kEngineChoices) {
    d.fail("unknown choice '" + choice + "'");
  } else {
    r.choice = static_cast<EngineChoice>(c);
  }
}

void write_json(JsonWriter& w, const SelectorLog::Snapshot& s) {
  w.member("schema_version", kSelectorSchemaVersion);
  w.member("supersteps", static_cast<std::uint64_t>(s.rows.size()));
  w.key("rows").begin_array();
  for (const SelectorRow& r : s.rows) {
    w.begin_object();
    write_json(w, r);
    w.end_object();
  }
  w.end_array();
}

void read_json(JsonDecoder& d, SelectorLog::Snapshot& s) {
  d.expect_version(kSelectorSchemaVersion);
  const std::uint64_t supersteps = d.u64("supersteps");
  const JsonValue* rows = d.array("rows");
  if (rows == nullptr) return;
  s.rows.resize(rows->items().size());
  for (std::size_t i = 0; i < s.rows.size(); ++i)
    d.read_at(rows->items()[i], "rows." + std::to_string(i), s.rows[i]);
  if (d.ok() && supersteps != s.rows.size())
    d.fail("supersteps " + std::to_string(supersteps) + " but " +
           std::to_string(s.rows.size()) + " rows");
}

}  // namespace dxbsp::obs
