#pragma once
// Out-of-core streaming execution: drives a workload far larger than
// memory through Machine bulk operations in bounded-memory slabs
// (docs/streaming.md).
//
// The executor runs two phases:
//
//   ingest  — slabs are generated counter-style (workload::stream_slab:
//             element i is a pure function of (seed, i), so nothing ever
//             needs to be held to be re-read), hashed to a spill
//             partition and staged in a SlabPool. When the pool crosses
//             the byte budget the PressureModel latches spilling and
//             raises back-pressure: the producer stalls while whole
//             partitions (coldest-last: most resident bytes first, ties
//             to the lowest id) are evicted to the SpillStore until the
//             pressure clears. The TLA MemoryInvariant
//             (memory_used <= budget + one slab) is asserted after every
//             transition.
//
//   drain   — partitions are processed in ascending id order; each
//             partition's slabs replay in production order, restored
//             from disk when spilled (restores are charged against the
//             same budget) and fed through Machine::scatter. Because the
//             processing order is a pure function of the config, the
//             totals and the per-partition checksums are byte-identical
//             to a fully-in-RAM run of the same config — the property
//             the equivalence tests and ci.sh pin.
//
// Completed partitions are banked in a resilience::Snapshot (key =
// partition id, sweep_id = the config fingerprint) through the
// crash-atomic CheckpointWriter; a resumed run re-emits banked
// partitions from the checkpoint without regenerating or re-simulating
// them, which is what makes a SIGKILL mid-spill recoverable
// byte-identically.
//
// Failure mapping: the spill tier failing persistently (injected or real
// ENOSPC, unreadable or corrupt chunk) degrades the run —
// Error{kDegraded}, exit 69 — with the typed cause in the message;
// cancellation (signal, deadline, the token's stall window catching a
// hung spill) stays Error{kInterrupted}, exit 75. Config and flag errors stay
// kConfig/kParse. A budget too small for the workload with no
// --spill-dir is kConfig, not a crash.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "resilience/cancel.hpp"
#include "sim/machine.hpp"
#include "svc/chaos.hpp"
#include "util/cli.hpp"

namespace dxbsp::stream {

/// What to stream and under what memory regime.
struct StreamConfig {
  std::uint64_t n = 0;          ///< total stream elements
  std::uint64_t space = 0;      ///< address space the elements index
  std::uint64_t seed = 1;       ///< generator seed (element i = f(seed, i))
  std::uint64_t hot_every = 0;  ///< every k-th element hits address 0
  std::uint64_t mem_budget = 0; ///< hard slab-memory budget; 0 = unlimited
  std::uint64_t slab_bytes = std::uint64_t{1} << 20;  ///< producer batch size
  std::uint64_t partitions = 8;
  std::string spill_dir;        ///< required once the budget can be exceeded
  std::uint64_t disk_retries = 3;
  std::string checkpoint;       ///< partition bank path ("" = no banking)
  bool resume = false;          ///< re-emit banked partitions

  /// Throws Error{kConfig} on an unrunnable config — including a budget
  /// the workload must exceed with no spill_dir to overflow into.
  void validate() const;

  /// Strict flag parsing (--n, --space, --seed, --hot-every,
  /// --mem-budget, --slab-bytes, --partitions, --spill-dir,
  /// --disk-retries, --checkpoint, --resume). Explicit zeros for
  /// --mem-budget / --slab-bytes / --partitions are rejected with
  /// Error{kParse} naming the flag, like every malformed value.
  [[nodiscard]] static StreamConfig from_cli(const util::Cli& cli);

  /// FNV-1a fingerprint of everything that shapes the element stream and
  /// its partitioning. Stamped into spill chunks and the checkpoint
  /// sweep_id, so files from a different config are rejected, never
  /// silently merged.
  [[nodiscard]] std::uint64_t stream_id() const noexcept;
};

/// Per-partition outcome (ascending partition order in StreamResult).
struct PartitionResult {
  std::uint64_t partition = 0;
  std::uint64_t slabs = 0;
  std::uint64_t elements = 0;
  std::uint64_t cycles = 0;         ///< summed over the partition's slabs
  std::uint64_t max_bank_load = 0;  ///< max over the partition's slabs
  std::uint64_t completed = 0;
  /// Chained CRC-32 over each slab's (cycles, max_bank_load, n,
  /// completed) in replay order: collapses the full result stream into
  /// one word that any reordering, loss or duplication perturbs.
  std::uint64_t checksum = 0;
  bool resumed = false;  ///< re-emitted from the checkpoint bank
};

struct StreamResult {
  std::vector<PartitionResult> partitions;
  std::uint64_t elements = 0;
  std::uint64_t cycles = 0;
  std::uint64_t max_bank_load = 0;
  std::uint64_t completed = 0;
  std::uint64_t checksum = 0;  ///< partition checksums chained in id order
  // Memory/spill accounting (PressureModel + SpillStore).
  std::uint64_t peak_bytes = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t spill_chunks = 0;
  std::uint64_t back_pressure_events = 0;
  std::uint64_t partitions_resumed = 0;
  bool spilled = false;
};

/// Non-owning observer/injection hooks, all optional.
struct StreamHooks {
  const resilience::CancelToken* cancel = nullptr;
  obs::TraceRing* trace = nullptr;           ///< kSpill / kBackPressure spans
  const fault::FaultPlan* faults = nullptr;  ///< disk grammar consumed here
  /// spill:K and point:K phases. A stream run is never a leased shard,
  /// so it matches events for shard 0, attempt 0.
  const svc::ChaosPlan* chaos = nullptr;
};

class StreamExecutor {
 public:
  /// The machine is borrowed; its configuration (banks, latency, engine)
  /// is the caller's business — the executor only feeds it slabs.
  StreamExecutor(StreamConfig config, sim::Machine& machine,
                 StreamHooks hooks = {});

  /// Runs ingest + drain to completion. See the header comment for the
  /// error mapping.
  [[nodiscard]] StreamResult run();

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

 private:
  StreamConfig config_;
  sim::Machine& machine_;
  StreamHooks hooks_;
};

}  // namespace dxbsp::stream
