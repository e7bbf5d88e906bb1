#pragma once
// Contention analysis of an address trace: per-location multiplicities
// (location contention, the quantity the QRQW model charges for) and
// per-bank loads under a mapping (module-map contention, paper §4).

#include <cstdint>
#include <span>
#include <vector>

#include "mem/bank_mapping.hpp"

namespace dxbsp::mem {

/// Location-contention statistics of one bulk operation's address trace.
struct LocationContention {
  std::uint64_t total = 0;          ///< number of requests
  std::uint64_t distinct = 0;       ///< number of distinct locations
  std::uint64_t max_contention = 0; ///< max requests to any one location (k)
  double mean_contention = 0.0;     ///< total / distinct
};

/// Computes location contention for a trace in O(n) expected time with
/// util::MultiplicityCounter (a per-thread instance, reused across
/// calls). Exact: equal addresses are counted together, distinct ones
/// never. Throws Error(kConfig) on a trace of more than
/// util::MultiplicityCounter::kMaxKeys (2^32 - 2) addresses, the limit of
/// the counter's 32-bit counts.
[[nodiscard]] LocationContention analyze_locations(
    std::span<const std::uint64_t> addrs);

/// Per-bank load statistics of a trace under a mapping.
struct BankLoads {
  std::vector<std::uint64_t> load;  ///< requests per bank (size = num banks)
  std::uint64_t total = 0;
  std::uint64_t max_load = 0;       ///< h_bank in the superstep cost
  double mean_load = 0.0;           ///< total / banks
  std::uint64_t nonempty_banks = 0;
};

/// Tallies requests per bank under `mapping`, mapping the trace through
/// BankMapping::bank_of_batch in fixed-size chunks.
[[nodiscard]] BankLoads analyze_banks(std::span<const std::uint64_t> addrs,
                                      const BankMapping& mapping);

/// Max bank load if every distinct location sat in its own bank (i.e. the
/// load forced purely by *location* contention: the max multiplicity).
/// Comparing analyze_banks().max_load against this isolates the extra
/// contention introduced by the module map — the ratio studied in §4.
[[nodiscard]] std::uint64_t location_forced_max_load(
    std::span<const std::uint64_t> addrs, std::uint64_t num_banks);

}  // namespace dxbsp::mem
