#include "mem/contention.hpp"

#include <algorithm>
#include <array>

#include "util/bits.hpp"
#include "util/multiplicity.hpp"

namespace dxbsp::mem {

LocationContention analyze_locations(std::span<const std::uint64_t> addrs) {
  // One counter per thread: its buffers are reused across calls.
  thread_local util::MultiplicityCounter counter;
  const util::Multiplicity m = counter.count(addrs);
  LocationContention lc;
  lc.total = addrs.size();
  lc.distinct = m.distinct;
  lc.max_contention = m.max;
  if (lc.distinct != 0)
    lc.mean_contention =
        static_cast<double>(lc.total) / static_cast<double>(lc.distinct);
  return lc;
}

BankLoads analyze_banks(std::span<const std::uint64_t> addrs,
                        const BankMapping& mapping) {
  BankLoads bl;
  bl.load.assign(mapping.num_banks(), 0);
  bl.total = addrs.size();
  // Map in cache-sized chunks: one virtual dispatch per chunk, not per
  // address, and no trace-sized bank buffer.
  constexpr std::size_t kChunk = 1024;
  std::array<std::uint64_t, kChunk> banks;
  for (std::size_t i = 0; i < addrs.size(); i += kChunk) {
    const std::size_t len = std::min(kChunk, addrs.size() - i);
    mapping.bank_of_batch(addrs.subspan(i, len),
                          std::span(banks).first(len));
    for (std::size_t j = 0; j < len; ++j) ++bl.load[banks[j]];
  }
  for (const std::uint64_t l : bl.load) {
    bl.max_load = std::max(bl.max_load, l);
    if (l != 0) ++bl.nonempty_banks;
  }
  bl.mean_load = mapping.num_banks() == 0
                     ? 0.0
                     : static_cast<double>(bl.total) /
                           static_cast<double>(mapping.num_banks());
  return bl;
}

std::uint64_t location_forced_max_load(std::span<const std::uint64_t> addrs,
                                       std::uint64_t num_banks) {
  const LocationContention lc = analyze_locations(addrs);
  // Even a perfect map cannot serve one bank faster than its hottest
  // location, nor spread `total` requests thinner than total/B.
  return std::max<std::uint64_t>(
      lc.max_contention, util::ceil_div(lc.total, num_banks));
}

}  // namespace dxbsp::mem
