#pragma once
// Flat uint64 planes for the bulk-op hot loops (docs/performance.md
// §soa). The simulator keeps a bulk op's per-element route (addr→bank)
// and its per-bank request counts as ScratchArena slots, so the hot
// loops stream contiguous memory instead of hopping across AoS records.
//
// DXBSP_VEC_LOOP marks the loops the DXBSP_SIMD CMake toggle targets —
// today the three bank_of_batch mapping loops in mem/bank_mapping.cpp:
// with the toggle ON it expands to the compiler's vectorize/ivdep
// pragma, with it OFF to nothing. The pragmas only *permit* the
// transformation on loops whose semantics are iteration-independent, so
// the scalar fallback is bit-identical by construction (ci.sh builds
// both and diffs the outputs).

#include <cstddef>
#include <cstdint>

#include "util/scratch.hpp"

#if defined(DXBSP_SIMD)
#if defined(__clang__)
#define DXBSP_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define DXBSP_VEC_LOOP _Pragma("GCC ivdep")
#else
#define DXBSP_VEC_LOOP
#endif
#else
#define DXBSP_VEC_LOOP
#endif

namespace dxbsp::util {

/// Grows (never shrinks) the uint64 plane in `slot` to `n` elements and
/// returns its raw base. Contents are NOT zeroed — plane users fully
/// overwrite before reading, per the arena's lifetime rules. The pointer
/// is valid until the next resize of the same (uint64, slot) pair.
inline std::uint64_t* soa_plane(ScratchArena& arena, std::size_t slot,
                                std::size_t n) {
  auto& v = arena.vec<std::uint64_t>(slot);
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace dxbsp::util
