#include "algos/primitives.hpp"

#include <algorithm>
#include <stdexcept>

namespace dxbsp::algos {

std::vector<std::uint64_t> pack_indices(Vm& vm,
                                        const VArray<std::uint64_t>& flags,
                                        const std::string& label) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < flags.size(); ++i)
    if (flags.data[i] != 0) out.push_back(i);
  // Scan of the flags (2 passes) + write of the survivors (1 pass over
  // the output length, charged on the input region for simplicity).
  vm.contiguous(flags.region, flags.size(), 2.0, label);
  if (!out.empty()) {
    vm.contiguous(flags.region, out.size(), 1.0, label);
  }
  return out;
}

namespace {
void check_seg_ptr(std::span<const std::uint64_t> seg_ptr, std::uint64_t n) {
  if (seg_ptr.empty() || seg_ptr.front() != 0 || seg_ptr.back() != n)
    throw std::invalid_argument("segmented op: bad segment pointers");
  for (std::size_t i = 1; i < seg_ptr.size(); ++i)
    if (seg_ptr[i - 1] > seg_ptr[i])
      throw std::invalid_argument("segmented op: seg_ptr not monotone");
}
}  // namespace

std::vector<double> segmented_sum(Vm& vm, const VArray<double>& values,
                                  std::span<const std::uint64_t> seg_ptr,
                                  const std::string& label) {
  check_seg_ptr(seg_ptr, values.size());
  std::vector<double> sums(seg_ptr.size() - 1, 0.0);
  for (std::size_t s = 0; s + 1 < seg_ptr.size(); ++s)
    for (std::uint64_t i = seg_ptr[s]; i < seg_ptr[s + 1]; ++i)
      sums[s] += values.data[i];
  vm.contiguous(values.region, values.size(), 3.0, label);
  return sums;
}

std::vector<std::uint64_t> segmented_max(Vm& vm,
                                         const VArray<std::uint64_t>& values,
                                         std::span<const std::uint64_t> seg_ptr,
                                         const std::string& label) {
  check_seg_ptr(seg_ptr, values.size());
  std::vector<std::uint64_t> maxes(seg_ptr.size() - 1, 0);
  for (std::size_t s = 0; s + 1 < seg_ptr.size(); ++s)
    for (std::uint64_t i = seg_ptr[s]; i < seg_ptr[s + 1]; ++i)
      maxes[s] = std::max(maxes[s], values.data[i]);
  vm.contiguous(values.region, values.size(), 3.0, label);
  return maxes;
}

std::uint64_t reduce_sum(Vm& vm, const VArray<std::uint64_t>& xs,
                         const std::string& label) {
  std::uint64_t acc = 0;
  for (const auto x : xs.data) acc += x;
  vm.contiguous(xs.region, xs.size(), 1.0, label);
  return acc;
}

}  // namespace dxbsp::algos
