#include "core/access_profile.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace dxbsp::core {

AccessProfile make_profile(std::uint64_t n, std::uint64_t max_contention,
                           std::uint64_t distinct, std::uint64_t h_bank_mapped,
                           const DxBspParams& m) {
  AccessProfile ap;
  ap.n = n;
  ap.h_proc = util::ceil_div(n, m.p);
  ap.max_contention = max_contention;
  ap.distinct = distinct;
  ap.h_bank_location =
      std::max<std::uint64_t>(max_contention, util::ceil_div(n, m.banks()));
  ap.h_bank_mapped = h_bank_mapped;
  return ap;
}

AccessProfile profile_access(std::span<const std::uint64_t> addrs,
                             const DxBspParams& m,
                             const mem::BankMapping* mapping) {
  const mem::LocationContention lc = mem::analyze_locations(addrs);
  const std::uint64_t mapped =
      mapping != nullptr ? mem::analyze_banks(addrs, *mapping).max_load : 0;
  return make_profile(addrs.size(), lc.max_contention, lc.distinct, mapped, m);
}

AccessProfile profile_aggregate(std::uint64_t n, std::uint64_t max_contention,
                                const DxBspParams& m) {
  const std::uint64_t distinct =
      max_contention == 0 ? 0 : n / std::max<std::uint64_t>(1, max_contention);
  return make_profile(n, max_contention, distinct, 0, m);
}

}  // namespace dxbsp::core
