#pragma once
// Data-parallel building blocks: packing, segmented sums, reduction
// (scans live in algos/scan.hpp).
//
// These are the vectorizable primitives the paper's implementations are
// made of ([BHZ93] segmented operations, [ZB91] counting sort plumbing).
// Each executes its semantics on host data and charges the Vm the
// contiguous passes a pipelined vector machine needs for it — none of
// them performs irregular access, so none carries contention.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algos/vm.hpp"

namespace dxbsp::algos {

/// Indices of nonzero flags, in order ("pack" / stream compaction).
/// Charges a scan plus one contiguous write of the survivors.
[[nodiscard]] std::vector<std::uint64_t> pack_indices(
    Vm& vm, const VArray<std::uint64_t>& flags, const std::string& label);

/// Per-segment sums of values under CSR-style segment pointers
/// (seg_ptr.size() == segments+1, seg_ptr.back() == values.size()).
/// Charges 3 contiguous passes (the segmented-scan formulation of
/// [BHZ93], which hides latency regardless of segment structure).
[[nodiscard]] std::vector<double> segmented_sum(
    Vm& vm, const VArray<double>& values,
    std::span<const std::uint64_t> seg_ptr, const std::string& label);

/// Maximum over each segment, same accounting as segmented_sum.
[[nodiscard]] std::vector<std::uint64_t> segmented_max(
    Vm& vm, const VArray<std::uint64_t>& values,
    std::span<const std::uint64_t> seg_ptr, const std::string& label);

/// Sum-reduction of a whole array (2 passes worth 1: a single read pass).
[[nodiscard]] std::uint64_t reduce_sum(Vm& vm,
                                       const VArray<std::uint64_t>& xs,
                                       const std::string& label);

}  // namespace dxbsp::algos
