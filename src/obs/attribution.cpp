#include "obs/attribution.hpp"

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_read.hpp"

namespace dxbsp::obs {

namespace {

// Order matches the Eq. (1) reading of docs/observability.md: the issue
// pipeline (g·h_proc side), then the bank side (d·h_bank), then the wire
// and the fault-path extras.
struct CostTerm {
  const char* name;
  std::uint64_t CostBreakdown::*field;
};
constexpr CostTerm kTerms[kCostTerms] = {
    {"issue_gap", &CostBreakdown::issue_gap},
    {"window_stall", &CostBreakdown::window_stall},
    {"latency", &CostBreakdown::latency},
    {"bank_service", &CostBreakdown::bank_service},
    {"retry_backoff", &CostBreakdown::retry_backoff},
    {"failover", &CostBreakdown::failover},
    {"cache_hit", &CostBreakdown::cache_hit},
};

}  // namespace

const char* cost_term_name(std::size_t i) noexcept {
  return i < kCostTerms ? kTerms[i].name : "?";
}

std::uint64_t cost_term_value(const CostBreakdown& c, std::size_t i) noexcept {
  return i < kCostTerms ? c.*kTerms[i].field : 0;
}

void write_json(JsonWriter& w, const CostBreakdown& c) {
  for (const CostTerm& t : kTerms) w.member(t.name, c.*t.field);
}

void read_json(JsonDecoder& d, CostBreakdown& c) {
  for (const CostTerm& t : kTerms) c.*t.field = d.u64(t.name);
}

// The "bank_load" object. Codecs that only this file uses have internal
// linkage but stay in namespace obs, where write_object and
// JsonDecoder::read find them by argument-dependent lookup. The reader
// rejects a histogram of the wrong length and quantiles the histogram
// does not reproduce.
static void write_json(JsonWriter& w, const BankLoadSketch& s) {
  w.member("banks", s.banks);
  w.member("served", s.served);
  w.member("max", s.max);
  w.member("p50", s.p50());
  w.member("p90", s.p90());
  w.member("p99", s.p99());
  w.member("overflow", s.overflow);
  w.key("counts").begin_array();
  for (const std::uint64_t c : s.counts) w.value(c);
  w.end_array();
}

static void read_json(JsonDecoder& d, BankLoadSketch& s) {
  s.banks = d.u64("banks");
  s.served = d.u64("served");
  s.max = d.u64("max");
  const std::uint64_t quantiles[] = {d.u64("p50"), d.u64("p90"),
                                     d.u64("p99")};
  s.overflow = d.u64("overflow");
  const std::vector<std::uint64_t> counts = d.u64_array("counts");
  if (!d.ok()) return;
  if (counts.size() != s.counts.size()) {
    d.fail("counts holds " + std::to_string(counts.size()) +
           " buckets, a sketch has " + std::to_string(s.counts.size()));
    return;
  }
  std::copy(counts.begin(), counts.end(), s.counts.begin());
  if (quantiles[0] != s.p50() || quantiles[1] != s.p90() ||
      quantiles[2] != s.p99())
    d.fail("p50/p90/p99 disagree with counts");
}

void write_json(JsonWriter& w, const AttributionAggregate::Snapshot& a) {
  w.member("schema_version", kAttributionSchemaVersion);
  w.member("supersteps", a.supersteps);
  w.member("cycles", a.cycles);
  write_object(w, "terms", a.terms);
  w.member("max_location_contention", a.max_location_contention);
  write_object(w, "bank_load", a.sketch);
}

void read_json(JsonDecoder& d, AttributionAggregate::Snapshot& a) {
  d.expect_version(kAttributionSchemaVersion);
  a.supersteps = d.u64("supersteps");
  a.cycles = d.u64("cycles");
  d.read("terms", a.terms);
  a.max_location_contention = d.u64("max_location_contention");
  d.read("bank_load", a.sketch);
}

}  // namespace dxbsp::obs
