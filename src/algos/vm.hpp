#pragma once
// Vm: a data-parallel "vector machine" facade over the simulator.
//
// Algorithms in this library are written the way the paper's Cray codes
// were: as sequences of bulk data-parallel primitives (gather, scatter,
// scan, ...) over arrays. The Vm executes each primitive's *semantics* on
// host memory and simultaneously *accounts its cost* by running the
// address trace through the cycle-level simulator and the (d,x)-BSP/BSP
// predictors. This mirrors the paper's methodology of extracting access
// patterns from real implementations and comparing measured time against
// model predictions, phase by phase.
//
// Memory layout: arrays are carved out of a single simulated address
// space by a bump allocator, so distinct arrays occupy distinct bank
// regions exactly as they would on the real machine.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/params.hpp"
#include "core/predictor.hpp"
#include "sim/machine.hpp"

namespace dxbsp::algos {

/// A contiguous region of the simulated address space.
struct Region {
  std::uint64_t base = 0;
  std::uint64_t size = 0;

  /// Simulated word address of element i.
  [[nodiscard]] std::uint64_t addr(std::uint64_t i) const noexcept {
    return base + i;
  }
};

/// An array living both in host memory (data) and in the simulated
/// address space (region). T is the element payload for semantics; cost
/// accounting treats every element as one machine word.
template <typename T>
struct VArray {
  Region region;
  std::vector<T> data;

  [[nodiscard]] std::uint64_t size() const noexcept { return data.size(); }
  T& operator[](std::uint64_t i) { return data[i]; }
  const T& operator[](std::uint64_t i) const { return data[i]; }
};

/// Extra contiguous word streams charged per element of an irregular op
/// (index read + result write). They run at the processor gap and only
/// matter when the irregular access is not the bottleneck.
inline constexpr double kAuxStreams = 2.0;

/// Options controlling Vm cost accounting.
struct VmOptions {
  /// When false, skip the cycle-level simulation of every irregular op
  /// and use the mapped (d,x)-BSP prediction as the "sim" cycles — the
  /// model-only mode for very large sweeps. Validated against full
  /// simulation to a few percent across the test suite's patterns.
  bool simulate = true;
};

/// The vector-machine facade. One Vm per experiment run; its ledger
/// accumulates every primitive executed through it.
class Vm {
 public:
  /// Uses the machine's mapping for both simulation and prediction.
  Vm(sim::MachineConfig config,
     std::shared_ptr<const mem::BankMapping> mapping = nullptr,
     VmOptions options = {});

  /// Allocates an array of n words in the simulated address space.
  template <typename T>
  [[nodiscard]] VArray<T> make_array(std::uint64_t n, T init = T{}) {
    VArray<T> a;
    a.region = reserve(n);
    a.data.assign(n, init);
    return a;
  }

  /// Reserves n words of simulated address space without host storage.
  [[nodiscard]] Region reserve(std::uint64_t n);

  // ---- irregular primitives (semantics + accounting) ----

  /// out[i] = src.data[idx[i]]; accounts a gather of src addresses.
  void gather(std::vector<std::uint64_t>& out, const VArray<std::uint64_t>& src,
              std::span<const std::uint64_t> idx, const std::string& label);
  void gather(std::vector<double>& out, const VArray<double>& src,
              std::span<const std::uint64_t> idx, const std::string& label);

  /// dest.data[idx[i]] = vals[i], later i wins on collision (the
  /// arbitrary-winner semantics of a hardware vector scatter); accounts a
  /// scatter of dest addresses.
  void scatter(VArray<std::uint64_t>& dest, std::span<const std::uint64_t> idx,
               std::span<const std::uint64_t> vals, const std::string& label);

  /// dest.data[idx[i]] += vals[i]; accounts like scatter (the memory
  /// system sees the same request trace).
  void scatter_add(VArray<std::uint64_t>& dest,
                   std::span<const std::uint64_t> idx,
                   std::span<const std::uint64_t> vals,
                   const std::string& label);

  // ---- structured primitives ----

  /// Accounts `passes` contiguous sweeps over region[0, n) (stream reads/
  /// writes of scans, merges, elementwise ops). Semantics are up to the
  /// caller; this only charges time.
  void contiguous(const Region& r, std::uint64_t n, double passes,
                  const std::string& label);

  /// Accounts pure per-element computation (no memory traffic).
  void compute(std::uint64_t n, double ops_per_element,
               const std::string& label);

  /// Accounts an arbitrary address trace (for custom primitives).
  /// `streams` overrides the number of auxiliary contiguous word streams
  /// charged alongside the irregular access (default: kAuxStreams, the
  /// generic "read index vector, write result vector" case). Pass a
  /// smaller value for register-resident loops — e.g. a tree-descent
  /// gather whose index and result never leave vector registers.
  void bulk(std::span<const std::uint64_t> addrs, const std::string& label,
            double streams = -1.0);

  // ---- results ----

  [[nodiscard]] const core::CostLedger& ledger() const noexcept {
    return ledger_;
  }
  [[nodiscard]] core::CostLedger& ledger() noexcept { return ledger_; }
  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return ledger_.total_sim();
  }
  /// Hottest-location multiplicity of the irregular op just run over
  /// `n` requests, read from the ledger entry it recorded instead of
  /// recounting its addresses (an op over no requests records no entry
  /// and reads 0). Call it before the next op records another entry.
  [[nodiscard]] std::uint64_t last_contention(std::uint64_t n) const noexcept {
    return n == 0 ? 0 : ledger_.entries().back().max_contention;
  }
  [[nodiscard]] const sim::MachineConfig& config() const noexcept {
    return machine_.config();
  }
  [[nodiscard]] const core::DxBspParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] sim::Machine& machine() noexcept { return machine_; }

  /// Processor handling element i of an n-element bulk op (matches the
  /// machine's distribution); needed by algorithms that build
  /// processor-private data structures (e.g. radix-sort histograms).
  [[nodiscard]] std::uint64_t proc_of(std::uint64_t i,
                                      std::uint64_t n) const noexcept;

  /// Observer invoked with (label, address trace) for every irregular
  /// bulk operation executed through this Vm. Used to extract QRQW
  /// programs from real algorithm runs (qrqw/extract.hpp) and to dump
  /// traces for replay. Pass nullptr to clear.
  using TraceHook =
      std::function<void(const std::string&, std::span<const std::uint64_t>)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

 private:
  void account(std::span<const std::uint64_t> addrs, const std::string& label,
               double streams);

  sim::Machine machine_;
  core::DxBspParams params_;
  core::CostLedger ledger_;
  VmOptions options_;
  TraceHook trace_hook_;
  std::uint64_t next_addr_ = 0;
};

}  // namespace dxbsp::algos
