#include "fingerprint.hpp"

#include <sched.h>

#include <cstring>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_HAS_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PERFBENCH_HAS_TSAN 1
#endif
#if __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_HAS_UBSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_HAS_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PERFBENCH_HAS_TSAN 1
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::uint64_t cpus_allowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::uint64_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

std::string sanitizers() {
  std::string s;
#if defined(PERFBENCH_HAS_ASAN)
  s += "address,";
#endif
#if defined(PERFBENCH_HAS_TSAN)
  s += "thread,";
#endif
#if defined(PERFBENCH_HAS_UBSAN)
  s += "undefined,";
#endif
  if (s.empty()) return "none";
  s.pop_back();
  return s;
}

}  // namespace

bool sanitized_build() noexcept {
#if defined(PERFBENCH_HAS_ASAN) || defined(PERFBENCH_HAS_TSAN) || \
    defined(PERFBENCH_HAS_UBSAN)
  return true;
#else
  return false;
#endif
}

Fingerprint host_fingerprint() {
  Fingerprint f;
  f.cpu_model = cpu_model();
  f.nproc = cpus_allowed();
  f.compiler = PERFBENCH_COMPILER;
  f.build_type = PERFBENCH_BUILD_TYPE;
#if defined(DXBSP_SIMD) && DXBSP_SIMD
  f.simd = true;
#endif
  f.obs_trace = dxbsp::obs::kTraceCompiledIn;
#if defined(NDEBUG)
  f.ndebug = true;
#endif
  f.sanitizer = sanitizers();
  return f;
}

std::string to_json(const Fingerprint& f) {
  auto quoted = [](const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
  };
  std::ostringstream os;
  os << "{\"cpu_model\":" << quoted(f.cpu_model) << ",\"nproc\":" << f.nproc
     << ",\"compiler\":" << quoted(f.compiler)
     << ",\"build_type\":" << quoted(f.build_type)
     << ",\"dxbsp_simd\":" << (f.simd ? "true" : "false")
     << ",\"dxbsp_obs_trace\":" << (f.obs_trace ? "true" : "false")
     << ",\"ndebug\":" << (f.ndebug ? "true" : "false")
     << ",\"sanitizer\":" << quoted(f.sanitizer) << "}";
  return os.str();
}

}  // namespace perfbench
