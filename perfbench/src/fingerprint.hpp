#pragma once
// Host and build fingerprint stored next to every benchmark result, so a
// number is never compared against one taken on another machine or
// another kind of build without that showing.

#include <cstdint>
#include <string>

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  std::uint64_t nproc = 0;  ///< CPUs this process may run on
  std::string compiler;
  std::string build_type;
  bool simd = false;       ///< DXBSP_SIMD vectorization pragmas
  bool obs_trace = false;  ///< DXBSP_OBS_TRACE record sites compiled in
  bool ndebug = false;
  std::string sanitizer;  ///< "none", or the sanitizers compiled in
};

[[nodiscard]] Fingerprint host_fingerprint();

/// True when the benchmark was built with any sanitizer; its timings are
/// then not fit to become a baseline.
[[nodiscard]] bool sanitized_build() noexcept;

/// One-line JSON object.
[[nodiscard]] std::string to_json(const Fingerprint& f);

}  // namespace perfbench
