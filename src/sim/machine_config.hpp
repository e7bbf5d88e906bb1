#pragma once
// Machine configuration for the pipelined-memory multiprocessor simulator.
//
// The parameters mirror the (d,x)-BSP model plus the few mechanism-level
// knobs the paper's experiments exercise (slackness window, network
// sections). Presets approximate the machines in the paper's Table 1;
// exact Cray part counts are approximated where the text does not pin
// them down (see DESIGN.md §3).

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hpp"

namespace dxbsp::sim {

/// How consecutive elements of a bulk operation are assigned to
/// processors. Cray-style vectorized loops give each CPU a contiguous
/// block; cyclic assignment interleaves.
enum class Distribution { kBlock, kCyclic };

/// Full description of a simulated machine.
struct MachineConfig {
  std::string name = "base";

  std::uint64_t processors = 8;   ///< p
  std::uint64_t gap = 1;          ///< g: cycles between issues per processor
  std::uint64_t latency = 50;     ///< L: one-way network latency in cycles
  std::uint64_t bank_delay = 6;   ///< d: bank busy period per request
  std::uint64_t expansion = 16;   ///< x: banks per processor

  /// S: maximum outstanding requests per processor (latency-hiding window;
  /// the paper uses S = 64K for all experiments).
  std::uint64_t slackness = 64 * 1024;

  /// Network sectioning. 0 sections = ideal network (latency only).
  /// Otherwise banks are striped across `network_sections` sections and
  /// each section port accepts one request every `section_period` cycles.
  std::uint64_t network_sections = 0;
  std::uint64_t section_period = 1;

  /// Bank caching (Hsu & Smith [HS93]; the paper lists it as a memory-
  /// system refinement the (d,x)-BSP does not capture, available on the
  /// Tera). 0 disables. Otherwise each bank keeps `bank_cache_lines`
  /// most-recently-used lines of `cache_line_words` words; a request
  /// hitting a cached line occupies the bank for `cached_delay` cycles
  /// instead of `bank_delay`.
  std::uint64_t bank_cache_lines = 0;
  std::uint64_t cache_line_words = 8;
  std::uint64_t cached_delay = 1;

  /// Butterfly network ([ST91]-style refined model): when true, requests
  /// traverse log2(banks) stages of shared wires, each occupied
  /// `link_period` cycles per packet; congestion emerges from wire
  /// sharing instead of the coarse section model. Mutually exclusive
  /// with network_sections.
  bool butterfly_network = false;
  std::uint64_t link_period = 1;

  /// Ports per bank: a bank with b ports serves up to b overlapping
  /// requests, each still occupying its port for `bank_delay` cycles
  /// (the dual-pipe organization of C90-class memory sections). The
  /// (d,x)-BSP has no port parameter — a b-ported bank behaves like b
  /// banks of the plain kind for balanced traffic but NOT for a single
  /// hot location (the location still lives in one bank, but b ports
  /// drain its queue b-fold faster); ablation A9 probes the difference.
  std::uint64_t bank_ports = 1;

  /// Combining of concurrent requests to the same location inside the
  /// memory system (Ranade-style; the paper notes its analysis assumes
  /// combining is *absent* on Cray-like machines). When true, a request
  /// arriving at a bank while a request for the same word is queued or
  /// in service is merged with it (no extra bank occupancy) — location
  /// contention becomes nearly free, which is exactly the machine the
  /// CRCW PRAM assumes.
  bool combine_requests = false;

  /// Per-processor cache/local-memory tier in front of the banks
  /// (src/cache/, docs/cache.md). Disabled by default (capacity 0): the
  /// machine is then bit-identical to the flat (d,x)-BSP memory system.
  /// Distinct from the bank-side MRU cache above ([HS93]), which sits
  /// *inside* the banks and only shortens their busy period.
  cache::CacheConfig cache;

  Distribution distribution = Distribution::kBlock;

  [[nodiscard]] std::uint64_t banks() const noexcept {
    return expansion * processors;
  }

  /// Throws std::invalid_argument if any parameter is out of range.
  void validate() const;

  // ---- Presets approximating the paper's Table 1 machines ----

  /// Cray C90-like: 16 CPUs, 1024 SRAM banks (x = 64), bank delay 6.
  [[nodiscard]] static MachineConfig cray_c90();

  /// Cray J90-like: 8 CPUs (the paper's dedicated experiment system),
  /// DRAM banks with delay 14, x = 32.
  [[nodiscard]] static MachineConfig cray_j90();

  /// Tera MTA-like: many processors, modest expansion, long latency hidden
  /// by massive multithreading (large slackness).
  [[nodiscard]] static MachineConfig tera_like();

  /// Small deterministic machine for unit tests (p=4, x=4, d=4, L=8).
  [[nodiscard]] static MachineConfig test_machine();

  /// All presets, for Table 1 printing.
  [[nodiscard]] static std::vector<MachineConfig> table1_presets();

  /// Parses a machine spec string: an optional preset name followed by
  /// comma-separated overrides, e.g. "j90,p=16,d=20,combine=1" or
  /// "p=4,g=2,L=10,d=8,x=4". Keys: p, g, L, d, x, S (slackness),
  /// sections, section-period, ports, cache-lines, line-words,
  /// cached-delay, combine (0/1), dist (block|cyclic), and the
  /// processor-cache tier knobs cache (capacity in lines), cache-line
  /// (words), cache-assoc (0 = fully associative), cache-write
  /// (through|back), cache-latency. Throws Error{kParse} on unknown
  /// keys or presets; the result is validate()d.
  [[nodiscard]] static MachineConfig parse(const std::string& spec);
};

}  // namespace dxbsp::sim
