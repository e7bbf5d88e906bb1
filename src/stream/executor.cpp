#include "stream/executor.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <utility>

#include "obs/metrics.hpp"
#include "resilience/framed_file.hpp"
#include "resilience/snapshot.hpp"  // the partition bank
#include "stream/slab_pool.hpp"
#include "stream/spill_store.hpp"
#include "workload/patterns.hpp"

namespace dxbsp::stream {

namespace {

// Chained CRC-32 over a handful of result words: seeds with the running
// checksum so order, loss and duplication all perturb the final value.
std::uint64_t chain_crc(std::uint64_t running,
                        std::array<std::uint64_t, 4> words) {
  std::array<unsigned char, sizeof(words)> bytes;
  std::memcpy(bytes.data(), words.data(), sizeof(words));
  return resilience::crc32(bytes, static_cast<std::uint32_t>(running));
}

// Strict uint flag with a flag-named zero rejection: get_uint already
// rejects garbage, sign and overflow; an explicit 0 for a flag that is
// semantically >= 1 gets the same treatment instead of a confusing
// downstream kConfig.
std::uint64_t get_positive(const util::Cli& cli, const std::string& name,
                           std::uint64_t def) {
  const std::uint64_t v = cli.get_uint(name, def);
  // flags().count, not has(): has() treats an explicit "0" as absent
  // (its boolean-flag convention), which is exactly the value that must
  // be rejected loudly here.
  if (cli.flags().count(name) != 0 && v == 0)
    raise(ErrorCode::kParse,
          "--" + name + " must be >= 1 (omit the flag for the default)");
  return v;
}

}  // namespace

void StreamConfig::validate() const {
  if (n == 0) raise(ErrorCode::kConfig, "StreamConfig: n must be >= 1");
  if (space == 0)
    raise(ErrorCode::kConfig, "StreamConfig: space must be >= 1");
  if (partitions == 0)
    raise(ErrorCode::kConfig, "StreamConfig: partitions must be >= 1");
  if (slab_bytes < sizeof(std::uint64_t) ||
      slab_bytes % sizeof(std::uint64_t) != 0)
    raise(ErrorCode::kConfig,
          "StreamConfig: slab_bytes must be a positive multiple of 8, got " +
              std::to_string(slab_bytes));
  if (mem_budget != 0 && mem_budget < slab_bytes)
    raise(ErrorCode::kConfig,
          "StreamConfig: mem_budget (" + std::to_string(mem_budget) +
              ") must hold at least one slab (" + std::to_string(slab_bytes) +
              " bytes)");
  if (mem_budget != 0 && n * sizeof(std::uint64_t) > mem_budget &&
      spill_dir.empty())
    raise(ErrorCode::kConfig,
          "StreamConfig: workload (" + std::to_string(n * 8) +
              " bytes) exceeds mem_budget (" + std::to_string(mem_budget) +
              ") — a spill_dir is required");
  if (resume && checkpoint.empty())
    raise(ErrorCode::kConfig,
          "StreamConfig: resume requires a checkpoint path");
}

StreamConfig StreamConfig::from_cli(const util::Cli& cli) {
  StreamConfig cfg;
  cfg.n = cli.get_uint("n", cfg.n);
  cfg.space = cli.get_uint("space", cfg.space);
  cfg.seed = cli.get_uint("seed", cfg.seed);
  cfg.hot_every = cli.get_uint("hot-every", cfg.hot_every);
  cfg.mem_budget = get_positive(cli, "mem-budget", 0);
  cfg.slab_bytes = get_positive(cli, "slab-bytes", cfg.slab_bytes);
  cfg.partitions = get_positive(cli, "partitions", cfg.partitions);
  cfg.spill_dir = cli.get("spill-dir", "");
  if (cli.has("spill-dir") && cfg.spill_dir.empty())
    raise(ErrorCode::kParse, "--spill-dir must not be empty");
  cfg.disk_retries = cli.get_uint("disk-retries", cfg.disk_retries);
  cfg.checkpoint = cli.get("checkpoint", "");
  cfg.resume = cli.has("resume");
  return cfg;
}

std::uint64_t StreamConfig::stream_id() const noexcept {
  // FNV-1a over the words that shape the element stream and its
  // partitioning (the budget deliberately excluded: any budget replays
  // the same stream, which is what makes cross-budget equivalence and
  // resume-under-a-different-budget sound).
  std::uint64_t h = 1469598103934665603ULL;
  const auto word = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  word(n);
  word(space);
  word(seed);
  word(hot_every);
  word(slab_bytes);
  word(partitions);
  return h;
}

StreamExecutor::StreamExecutor(StreamConfig config, sim::Machine& machine,
                               StreamHooks hooks)
    : config_(std::move(config)), machine_(machine), hooks_(hooks) {
  config_.validate();
}

StreamResult StreamExecutor::run() {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t slab_elems = config_.slab_bytes / sizeof(std::uint64_t);
  const std::uint64_t n_slabs = (config_.n + slab_elems - 1) / slab_elems;
  const std::uint64_t budget =
      config_.mem_budget == 0 ? kUnlimitedBudget : config_.mem_budget;

  // ---- Resume: load the partition bank, if any -----------------------
  std::map<std::uint64_t, resilience::SnapshotRecord> banked;
  if (config_.resume) {
    Expected<resilience::Snapshot> loaded =
        resilience::Snapshot::load(config_.checkpoint);
    if (!loaded) {
      // A missing checkpoint is a fresh start; anything else (corrupt,
      // foreign) must not be silently ignored.
      if (loaded.error().code() != ErrorCode::kIo) throw loaded.error();
    } else {
      if (loaded.value().sweep_id != config_.stream_id())
        raise(ErrorCode::kConfig,
              "StreamExecutor: checkpoint " + config_.checkpoint +
                  " belongs to a different stream config");
      for (const resilience::SnapshotRecord& r : loaded.value().records) {
        if (r.key >= config_.partitions)
          raise(ErrorCode::kConfig,
                "StreamExecutor: checkpoint partition " +
                    std::to_string(r.key) + " out of range");
        banked.emplace(r.key, r);
      }
    }
  }

  std::optional<resilience::CheckpointWriter> writer;
  if (!config_.checkpoint.empty())
    writer.emplace(config_.checkpoint, config_.stream_id());

  SlabPool pool(budget, config_.slab_bytes);
  std::optional<SpillStore> store;
  if (!config_.spill_dir.empty()) {
    SpillOptions opt;
    opt.dir = config_.spill_dir;
    opt.stream_id = config_.stream_id();
    opt.write_retries = config_.disk_retries;
    opt.faults = hooks_.faults;
    opt.chaos = hooks_.chaos;
    opt.cancel = hooks_.cancel;
    store.emplace(std::move(opt));
  }

  StreamResult out;
  out.budget_bytes = budget;

  // ---- Phase 1: ingest (generate, stage, spill under pressure) -------
  std::vector<std::uint64_t> next_chunk(config_.partitions, 0);
  for (std::uint64_t s = 0; s < n_slabs; ++s) {
    if (hooks_.cancel != nullptr) {
      hooks_.cancel->heartbeat();
      hooks_.cancel->raise_if_expired("stream ingest");
    }
    const std::uint64_t p = s % config_.partitions;
    if (banked.count(p) != 0) continue;  // already simulated and banked
    const std::uint64_t begin = s * slab_elems;
    const std::uint64_t count = std::min(slab_elems, config_.n - begin);
    pool.admit(s, p,
               workload::stream_slab(config_.seed, begin, count,
                                     config_.space, config_.hot_every));
    reg.counter("stream.slabs_ingested").add(1);

    while (pool.over_budget()) {
      if (!store.has_value())
        raise(ErrorCode::kConfig,
              "StreamExecutor: memory budget exceeded but no spill_dir "
              "configured");
      const std::optional<std::uint64_t> victim = pool.victim_partition();
      if (!victim.has_value())
        raise(ErrorCode::kInternal,
              "StreamExecutor: over budget with nothing resident to evict");
      std::uint64_t freed = 0;
      for (const std::size_t h : pool.resident_of(*victim)) {
        const Slab& slab = pool.slabs()[h];
        const std::uint64_t chunk = next_chunk[*victim]++;
        try {
          store->write(*victim, chunk, slab.data);
        } catch (const Error& e) {
          if (e.code() == ErrorCode::kIo)
            raise(ErrorCode::kDegraded,
                  "spill tier failed while evicting partition " +
                      std::to_string(*victim) + ": " + e.what());
          throw;
        }
        freed += slab.bytes();
        pool.mark_spilled(h, chunk);
        ++out.spill_chunks;
        if (hooks_.trace != nullptr)
          hooks_.trace->record(
              {s, 1, *victim, slab.bytes(), obs::TraceKind::kSpill});
      }
      ++out.back_pressure_events;
      reg.counter("stream.back_pressure_events").add(1);
      if (hooks_.trace != nullptr)
        hooks_.trace->record(
            {s, 1, *victim, freed, obs::TraceKind::kBackPressure});
    }
  }

  // ---- Phase 2: drain (partitions ascending, slabs in replay order) --
  std::vector<resilience::SnapshotRecord> records;
  for (const auto& [key, rec] : banked) records.push_back(rec);
  std::uint64_t fresh_done = 0;  // chaos point:K ordinal (fresh partitions)

  for (std::uint64_t p = 0; p < config_.partitions; ++p) {
    if (hooks_.cancel != nullptr) {
      hooks_.cancel->heartbeat();
      hooks_.cancel->raise_if_expired("stream drain");
    }
    PartitionResult pr;
    pr.partition = p;

    const auto it = banked.find(p);
    if (it != banked.end()) {
      const resilience::SnapshotRecord& rec = it->second;
      pr.slabs = rec.aux[0];
      pr.elements = rec.aux[1];
      pr.checksum = rec.aux[2];
      pr.cycles = rec.result.cycles;
      pr.max_bank_load = rec.result.max_bank_load;
      pr.completed = rec.result.completed;
      pr.resumed = true;
      ++out.partitions_resumed;
    } else {
      for (std::size_t h = 0; h < pool.slabs().size(); ++h) {
        if (pool.slabs()[h].partition != p) continue;
        std::vector<std::uint64_t> data;
        const bool spilled = pool.slabs()[h].spilled;
        const std::uint64_t chunk = pool.slabs()[h].chunk;
        if (spilled) {
          Expected<std::vector<std::uint64_t>> restored =
              store->read(p, chunk);
          if (!restored)
            raise(ErrorCode::kDegraded,
                  "spill restore failed for partition " + std::to_string(p) +
                      ": " + restored.error().what());
          data = std::move(restored).value();
          pool.charge_restored(data.size() * sizeof(std::uint64_t));
        } else {
          data = pool.take(h);
        }
        const sim::BulkResult br = machine_.scatter(data);
        pr.cycles += br.cycles;
        pr.max_bank_load = std::max(pr.max_bank_load, br.max_bank_load);
        pr.completed += br.completed;
        pr.elements += br.n;
        ++pr.slabs;
        pr.checksum = chain_crc(
            pr.checksum, {br.cycles, br.max_bank_load, br.n, br.completed});
        if (spilled) {
          pool.release_restored(data.size() * sizeof(std::uint64_t));
          store->remove(p, chunk);
        }
      }
      reg.counter("stream.elements").add(pr.elements);
    }

    out.elements += pr.elements;
    out.cycles += pr.cycles;
    out.max_bank_load = std::max(out.max_bank_load, pr.max_bank_load);
    out.completed += pr.completed;
    out.checksum = chain_crc(out.checksum, {pr.partition, pr.checksum, 0, 0});
    out.partitions.push_back(pr);

    if (!pr.resumed) {
      if (writer.has_value()) {
        resilience::SnapshotRecord rec;
        rec.key = p;
        rec.rng_state = config_.seed;
        rec.aux = {pr.slabs, pr.elements, pr.checksum, 0};
        rec.result.cycles = pr.cycles;
        rec.result.n = pr.elements;
        rec.result.max_bank_load = pr.max_bank_load;
        rec.result.completed = pr.completed;
        records.push_back(rec);
        writer->flush(records);
      }
      ++fresh_done;
      // phase=point:K for the stream path: fires after the K-th freshly
      // completed partition is banked — the same "work durable, more to
      // do" instant the sweep workers use it for.
      if (hooks_.chaos != nullptr) {
        const svc::ChaosEvent* ev =
            hooks_.chaos->match(0, 0, svc::ChaosPhase::kPoint, fresh_done);
        if (ev != nullptr) svc::chaos_execute(*ev);
      }
    }
  }

  out.peak_bytes = pool.peak_bytes();
  out.spilled_bytes = pool.spilled_bytes();
  out.spilled = out.spilled_bytes > 0;
  reg.gauge("stream.peak_bytes", obs::Stability::kHost)
      .observe(out.peak_bytes);
  if (out.partitions_resumed > 0)
    reg.counter("stream.partitions_resumed", obs::Stability::kHost)
        .add(out.partitions_resumed);
  return out;
}

}  // namespace dxbsp::stream
