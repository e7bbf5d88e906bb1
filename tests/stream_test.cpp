// Streaming subsystem tests (docs/streaming.md):
//   * the PressureModel is model-checked exhaustively over every
//     interleaving of build/probe arrivals, evictions and releases at
//     tiny budgets — the TLA SpillingSimple state machine's
//     MemoryInvariant, ported property-for-property — plus a seeded
//     large randomized run;
//   * the DXSPL1 spill format is fuzzed at every truncation point and
//     every single-bit flip: always a typed Error, never a crash or
//     silently wrong data; its block codec round-trips empty,
//     one-element and offset payloads;
//   * streaming-vs-in-RAM equivalence: a run forced to spill produces
//     byte-identical totals and checksums to the unlimited-budget run;
//   * every injected disk fault (slow, short write, ENOSPC, corrupt)
//     ends in the documented structured outcome;
//   * strict CLI parsing for the memory flags, spill-dir creation and
//     orphan cleanup;
//   * checkpoint/resume of partitions, including a crafted partial bank;
//   * chaos phase=spill hang trips the token's stall window and is revoked
//     cleanly (Error{kInterrupted}, cause kStalled), and a subprocess
//     SIGKILL mid-spill recovers byte-identically via the bench binary.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <tuple>

#include "fault/fault_plan.hpp"
#include "resilience/cancel.hpp"
#include "resilience/snapshot.hpp"
#include "sim/machine.hpp"
#include "stream/executor.hpp"
#include "stream/pressure.hpp"
#include "stream/slab_pool.hpp"
#include "stream/spill_store.hpp"
#include "svc/chaos.hpp"
#include "util/cli.hpp"
#include "test_tmp.hpp"

namespace {

using namespace dxbsp;

std::string tmp_dir(const std::string& name) {
  const std::string d = testing_tmp::path("dxbsp_stream_" + name);
  std::filesystem::remove_all(d);
  return d;
}

sim::MachineConfig small_machine() {
  sim::MachineConfig cfg;
  cfg.name = "streamtest";
  cfg.processors = 4;
  cfg.gap = 1;
  cfg.latency = 8;
  cfg.bank_delay = 4;
  cfg.expansion = 2;
  return cfg;
}

stream::StreamConfig small_stream(const std::string& spill_dir = "") {
  stream::StreamConfig cfg;
  cfg.n = 2048;
  cfg.space = 1 << 16;
  cfg.seed = 7;
  cfg.slab_bytes = 256 * 8;  // 256 elements per slab -> 8 slabs
  cfg.partitions = 4;
  cfg.mem_budget = 0;
  cfg.spill_dir = spill_dir;
  return cfg;
}

util::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"stream_test"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

// ---------------------------------------------------------------------
// PressureModel: exhaustive small-state model check
// ---------------------------------------------------------------------

// The TLA model's actions, enumerated over every reachable state: two
// producer arrival kinds (the model's build/probe inputs — identical
// accounting, distinct transitions), an eviction and a downstream
// release. A producer may only land a batch when back_pressure is down,
// exactly the guard SpillingSimple places on InputReceived_*.
TEST(PressureModel, ExhaustiveInterleavingsAtTinyBudgets) {
  for (std::uint64_t budget = 0; budget <= 4; ++budget) {
    for (std::uint64_t slack = 1; slack <= 2; ++slack) {
      using State = std::tuple<std::uint64_t, bool, bool, std::uint64_t>;
      std::set<State> seen;
      std::vector<stream::PressureModel> frontier;
      stream::PressureModel init;
      init.budget = budget;
      init.slack = slack;
      frontier.push_back(init);
      std::uint64_t edges = 0;
      while (!frontier.empty()) {
        const stream::PressureModel m = frontier.back();
        frontier.pop_back();
        const State key{m.memory_used, m.spilling, m.back_pressure,
                        m.spilled_bytes % 3};
        if (!seen.insert(key).second) continue;
        // Invariant + derived-variable consistency in every state.
        ASSERT_TRUE(m.invariant());
        ASSERT_EQ(m.back_pressure, m.memory_used > m.budget);
        if (m.memory_used > m.budget) {
          ASSERT_TRUE(m.spilling);
        }

        for (int action = 0; action < 4; ++action) {
          stream::PressureModel next = m;
          switch (action) {
            case 0:  // build batch arrives
            case 1:  // probe batch arrives
              if (m.back_pressure) continue;  // producer is stalled
              next.admit(slack);
              break;
            case 2:  // a partition's bytes move to disk
              if (m.memory_used == 0) continue;
              next.evict(std::min<std::uint64_t>(slack, m.memory_used));
              break;
            case 3:  // downstream consumed a batch
              if (m.memory_used == 0) continue;
              next.release(std::min<std::uint64_t>(slack, m.memory_used));
              break;
          }
          ++edges;
          ASSERT_TRUE(next.invariant())
              << "MemoryInvariant broken: budget=" << budget
              << " slack=" << slack << " used=" << next.memory_used;
          // Spilling is sticky, as in the TLA model.
          if (m.spilling) {
            ASSERT_TRUE(next.spilling);
          }
          frontier.push_back(next);
        }
      }
      ASSERT_GT(edges, 0U);
    }
  }
}

TEST(PressureModel, SeededRandomizedRunHoldsInvariant) {
  std::mt19937_64 rng(1995);
  stream::PressureModel m;
  m.budget = 1024;
  m.slack = 64;
  for (int step = 0; step < 200000; ++step) {
    const auto dice = rng() % 4;
    if (dice <= 1 && !m.back_pressure) {
      m.admit(1 + rng() % m.slack);
    } else if (m.memory_used > 0) {
      const std::uint64_t amount =
          std::min<std::uint64_t>(1 + rng() % m.slack, m.memory_used);
      if (dice == 2)
        m.evict(amount);
      else
        m.release(amount);
    }
    ASSERT_TRUE(m.invariant());
    ASSERT_EQ(m.back_pressure, m.memory_used > m.budget);
  }
  EXPECT_GT(m.peak, 0U);
}

TEST(PressureModel, OversizedAdmitAndUnderflowAreInternalErrors) {
  stream::PressureModel m;
  m.budget = 8;
  m.slack = 4;
  try {
    m.admit(5);
    FAIL() << "admit beyond slack must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
  try {
    m.release(1);
    FAIL() << "release of bytes never held must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

// ---------------------------------------------------------------------
// SlabPool
// ---------------------------------------------------------------------

TEST(SlabPool, EvictionAccountingAndVictimOrder) {
  stream::SlabPool pool(/*budget=*/32, /*slab_bytes=*/16);  // 2-elem slabs
  (void)pool.admit(0, /*partition=*/0, {1, 2});
  (void)pool.admit(1, /*partition=*/1, {3, 4});
  EXPECT_FALSE(pool.over_budget());
  (void)pool.admit(2, /*partition=*/1, {5, 6});
  EXPECT_TRUE(pool.over_budget());  // 48 > 32
  // Partition 1 holds the most resident bytes -> the victim.
  ASSERT_TRUE(pool.victim_partition().has_value());
  EXPECT_EQ(*pool.victim_partition(), 1U);
  for (const std::size_t h : pool.resident_of(1)) pool.mark_spilled(h, h);
  EXPECT_FALSE(pool.over_budget());
  EXPECT_EQ(pool.spilled_bytes(), 32U);
  // Ties break to the lowest partition id (deterministic re-ingestion).
  (void)pool.admit(3, /*partition=*/2, {7, 8});
  EXPECT_EQ(*pool.victim_partition(), 0U);
  const auto data = pool.take(pool.resident_of(0).at(0));
  EXPECT_EQ(data, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(pool.pressure().memory_used, 16U);
}

// ---------------------------------------------------------------------
// DXSPL1 spill format + store
// ---------------------------------------------------------------------

TEST(SpillStore, RoundTripAndStats) {
  const std::string dir = tmp_dir("roundtrip");
  stream::SpillOptions opt;
  opt.dir = dir;
  opt.stream_id = 42;
  stream::SpillStore store(opt);
  const std::vector<std::uint64_t> data{10, 20, 30, 40, 50};
  store.write(3, 0, data);
  EXPECT_EQ(store.chunks_written(), 1U);
  EXPECT_EQ(store.bytes_written(), stream::kSpillHeaderBytes + 5 * 8);
  const auto back = store.read(3, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  store.remove(3, 0);
  EXPECT_FALSE(store.read(3, 0).ok());  // gone -> kIo
  EXPECT_EQ(store.read(3, 0).error().code(), ErrorCode::kIo);
}

TEST(SpillStore, CreatesNestedDirAndCleansOrphanedTmp) {
  const std::string dir = tmp_dir("orphans") + "/nested/deeper";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/p0-c0.spl.tmp") << "torn";
  std::ofstream(dir + "/p1-c7.spl.tmp") << "torn too";
  stream::SpillOptions opt;
  opt.dir = dir;
  stream::SpillStore store(opt);
  EXPECT_EQ(store.orphans_cleaned(), 2U);
  EXPECT_FALSE(std::filesystem::exists(dir + "/p0-c0.spl.tmp"));
}

TEST(SpillStore, ForeignStreamAndMislabeledChunksAreRejected) {
  const std::string dir = tmp_dir("foreign");
  stream::SpillOptions opt;
  opt.dir = dir;
  opt.stream_id = 1;
  stream::SpillStore store(opt);
  store.write(0, 0, std::vector<std::uint64_t>{1, 2, 3});

  stream::SpillOptions other = opt;
  other.stream_id = 2;
  const stream::SpillStore reader(other);
  const auto r = reader.read(0, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);

  // A chunk renamed to the wrong slot is caught by its embedded labels.
  std::filesystem::copy_file(store.chunk_path(0, 0), store.chunk_path(5, 9));
  const auto m = store.read(5, 9);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.error().code(), ErrorCode::kCorruptSnapshot);
}

// Satellite: every truncation point and every single-bit flip of a
// DXSPL1 file must decode to a typed Error — never a crash, never OK.
TEST(SpillFuzz, EveryTruncationPointFailsTyped) {
  const std::vector<std::uint64_t> data{11, 22, 33, 44, 55, 66, 77, 88};
  const auto bytes = stream::SpillStore::encode(9, 2, 1, data);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto r = stream::SpillStore::parse(
        std::span(bytes.data(), len), "trunc@" + std::to_string(len));
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes parsed OK";
    ASSERT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);
  }
}

TEST(SpillFuzz, EverySingleBitFlipFailsTyped) {
  const std::vector<std::uint64_t> data{101, 202, 303, 404};
  const auto bytes = stream::SpillStore::encode(9, 2, 1, data);
  ASSERT_TRUE(stream::SpillStore::parse(bytes, "pristine").ok());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = bytes;
      mutant[byte] ^= static_cast<unsigned char>(1U << bit);
      const auto r = stream::SpillStore::parse(
          mutant, "flip@" + std::to_string(byte) + "." + std::to_string(bit));
      ASSERT_FALSE(r.ok())
          << "bit " << bit << " of byte " << byte << " flipped, parsed OK";
      ASSERT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);
    }
  }
}

TEST(SpillFuzz, OnDiskDamageSurfacesThroughRead) {
  const std::string dir = tmp_dir("ondisk");
  stream::SpillOptions opt;
  opt.dir = dir;
  stream::SpillStore store(opt);
  store.write(1, 0, std::vector<std::uint64_t>{5, 6, 7});
  const std::string path = store.chunk_path(1, 0);
  // Truncate on disk.
  std::filesystem::resize_file(path, stream::kSpillHeaderBytes + 3);
  auto r = store.read(1, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);
}

// The DXSPL1 codec copies the payload in one block each way; these are
// the edges of that copy (run under ASan/UBSan by scripts/ci.sh).
std::vector<std::uint64_t> codec_round_trip(
    std::span<const std::uint64_t> data) {
  const auto bytes = stream::SpillStore::encode(4, 1, 2, data);
  EXPECT_EQ(bytes.size(), stream::kSpillHeaderBytes + data.size() * 8);
  const auto r = stream::SpillStore::parse(bytes, "codec");
  if (!r.ok()) {
    ADD_FAILURE() << r.error().what();
    return {};
  }
  EXPECT_EQ(r.value().stream_id, 4U);
  EXPECT_EQ(r.value().partition, 1U);
  EXPECT_EQ(r.value().chunk, 2U);
  return r.value().data;
}

TEST(SpillCodec, EmptyChunkRoundTrips) {
  EXPECT_TRUE(codec_round_trip({}).empty());
}

TEST(SpillCodec, OneElementRoundTrips) {
  const std::vector<std::uint64_t> one{0x0123456789abcdefULL};
  EXPECT_EQ(codec_round_trip(one), one);
  // Little-endian on disk, whatever the copy does.
  const auto bytes = stream::SpillStore::encode(4, 1, 2, one);
  EXPECT_EQ(bytes[stream::kSpillHeaderBytes], 0xefU);
  EXPECT_EQ(bytes.back(), 0x01U);
}

TEST(SpillCodec, SubSpanPayloadRoundTrips) {
  std::vector<std::uint64_t> backing(40);
  for (std::size_t i = 0; i < backing.size(); ++i)
    backing[i] = ~std::uint64_t{0} / (i + 1);
  const std::span<const std::uint64_t> sub =
      std::span<const std::uint64_t>(backing).subspan(3, 29);
  const std::vector<std::uint64_t> want(sub.begin(), sub.end());
  EXPECT_EQ(codec_round_trip(sub), want);
  // Parse from a byte buffer one past alignment: the payload copy reads
  // from an odd address.
  const auto bytes = stream::SpillStore::encode(4, 1, 2, sub);
  std::vector<unsigned char> shifted(bytes.size() + 1);
  std::copy(bytes.begin(), bytes.end(), shifted.begin() + 1);
  const auto r = stream::SpillStore::parse(
      std::span<const unsigned char>(shifted).subspan(1), "shifted");
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value().data, want);
}

// ---------------------------------------------------------------------
// Executor: equivalence, faults, resume, stall window
// ---------------------------------------------------------------------

stream::StreamResult run_stream(const stream::StreamConfig& cfg,
                                stream::StreamHooks hooks = {}) {
  sim::Machine machine(small_machine());
  stream::StreamExecutor ex(cfg, machine, hooks);
  return ex.run();
}

TEST(StreamExecutor, SpilledRunMatchesInRamRunExactly) {
  const stream::StreamResult ram = run_stream(small_stream());
  EXPECT_FALSE(ram.spilled);

  stream::StreamConfig budgeted = small_stream(tmp_dir("equiv"));
  budgeted.mem_budget = budgeted.n * 8 / 4;  // forces spilling
  obs::TraceRing ring(1024);
  stream::StreamHooks hooks;
  hooks.trace = &ring;
  const stream::StreamResult spilled = run_stream(budgeted, hooks);

  EXPECT_TRUE(spilled.spilled);
  EXPECT_GT(spilled.spill_chunks, 0U);
  EXPECT_GT(spilled.back_pressure_events, 0U);
  EXPECT_EQ(spilled.elements, ram.elements);
  EXPECT_EQ(spilled.cycles, ram.cycles);
  EXPECT_EQ(spilled.max_bank_load, ram.max_bank_load);
  EXPECT_EQ(spilled.checksum, ram.checksum);
  ASSERT_EQ(spilled.partitions.size(), ram.partitions.size());
  for (std::size_t p = 0; p < ram.partitions.size(); ++p)
    EXPECT_EQ(spilled.partitions[p].checksum, ram.partitions[p].checksum);
  // The memory regime differs; the MemoryInvariant bounds it.
  EXPECT_LE(spilled.peak_bytes, budgeted.mem_budget + budgeted.slab_bytes);
  EXPECT_LT(spilled.peak_bytes, ram.peak_bytes);
  // Back-pressure is observable: spill + back-pressure spans were traced.
  EXPECT_GT(ring.count(obs::TraceKind::kSpill), 0U);
  EXPECT_GT(ring.count(obs::TraceKind::kBackPressure), 0U);
}

TEST(StreamExecutor, EnospcDegradesWithTypedCause) {
  stream::StreamConfig cfg = small_stream(tmp_dir("enospc"));
  cfg.mem_budget = cfg.n * 8 / 4;
  cfg.disk_retries = 1;
  const fault::FaultConfig fc = fault::FaultConfig::parse("disk=enospc:1");
  const fault::FaultPlan plan(fc, 8);
  stream::StreamHooks hooks;
  hooks.faults = &plan;
  try {
    (void)run_stream(cfg, hooks);
    FAIL() << "persistent ENOSPC must degrade the run";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDegraded);
    EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos);
  }
}

TEST(StreamExecutor, CorruptingDiskDegradesAtRestore) {
  stream::StreamConfig cfg = small_stream(tmp_dir("corruptdisk"));
  cfg.mem_budget = cfg.n * 8 / 4;
  const fault::FaultConfig fc = fault::FaultConfig::parse("disk=corrupt");
  const fault::FaultPlan plan(fc, 8);
  stream::StreamHooks hooks;
  hooks.faults = &plan;
  try {
    (void)run_stream(cfg, hooks);
    FAIL() << "silently corrupted chunks must not produce results";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDegraded);
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos);
  }
}

TEST(StreamExecutor, ShortAndSlowWritesRetryAndStillMatch) {
  const stream::StreamResult ram = run_stream(small_stream());
  for (const char* spec : {"disk=short_write", "disk=slow:1"}) {
    stream::StreamConfig cfg =
        small_stream(tmp_dir(std::string("transient_") + (spec[5] == 's'
                                                              ? "short"
                                                              : "slow")));
    cfg.mem_budget = cfg.n * 8 / 2;
    const fault::FaultConfig fc = fault::FaultConfig::parse(spec);
    const fault::FaultPlan plan(fc, 8);
    stream::StreamHooks hooks;
    hooks.faults = &plan;
    const stream::StreamResult r = run_stream(cfg, hooks);
    EXPECT_TRUE(r.spilled) << spec;
    EXPECT_EQ(r.checksum, ram.checksum) << spec;
  }
}

TEST(StreamExecutor, BudgetWithoutSpillDirIsConfigError) {
  stream::StreamConfig cfg = small_stream();
  cfg.mem_budget = cfg.n * 8 / 4;  // must overflow, nowhere to go
  try {
    (void)run_stream(cfg);
    FAIL() << "over-budget with no spill dir must be kConfig";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

TEST(StreamExecutor, ResumeReemitsBankedPartitionsByteIdentically) {
  const std::string dir = tmp_dir("resume");
  std::filesystem::create_directories(dir);
  stream::StreamConfig cfg = small_stream(dir + "/spill");
  cfg.mem_budget = cfg.n * 8 / 4;
  cfg.checkpoint = dir + "/bank.snap";
  const stream::StreamResult straight = run_stream(cfg);

  // Craft a partial bank: keep only the first two partitions, exactly
  // the state a crash after point 2 leaves behind.
  const auto full = resilience::Snapshot::load(cfg.checkpoint);
  ASSERT_TRUE(full.ok());
  resilience::CheckpointWriter writer(cfg.checkpoint, full.value().sweep_id);
  writer.flush(std::span(full.value().records.data(), 2));

  stream::StreamConfig resumed_cfg = cfg;
  resumed_cfg.resume = true;
  const stream::StreamResult resumed = run_stream(resumed_cfg);
  EXPECT_EQ(resumed.partitions_resumed, 2U);
  EXPECT_EQ(resumed.elements, straight.elements);
  EXPECT_EQ(resumed.cycles, straight.cycles);
  EXPECT_EQ(resumed.checksum, straight.checksum);
  for (std::size_t p = 0; p < straight.partitions.size(); ++p) {
    EXPECT_EQ(resumed.partitions[p].checksum, straight.partitions[p].checksum);
    EXPECT_EQ(resumed.partitions[p].resumed, p < 2);
  }
}

TEST(StreamExecutor, ForeignCheckpointIsRejected) {
  const std::string dir = tmp_dir("foreignck");
  std::filesystem::create_directories(dir);
  stream::StreamConfig cfg = small_stream();
  cfg.checkpoint = dir + "/bank.snap";
  (void)run_stream(cfg);

  stream::StreamConfig other = cfg;
  other.seed = cfg.seed + 1;  // different stream, same checkpoint path
  other.resume = true;
  try {
    (void)run_stream(other);
    FAIL() << "a checkpoint from another stream must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

// Chaos phase=spill,action=hang must trip the token's stall window and be
// revoked cleanly — Error{kInterrupted}, cause kStalled, no wedge. The
// hang stops beating the token but keeps polling it.
TEST(StreamExecutor, SpillHangTripsStallWatchdog) {
  stream::StreamConfig cfg = small_stream(tmp_dir("hang"));
  cfg.mem_budget = cfg.n * 8 / 4;
  const svc::ChaosPlan chaos =
      svc::ChaosPlan::parse("shard=0,attempt=0,phase=spill:1,action=hang");
  resilience::CancelToken token;
  token.set_stall(0.25);
  stream::StreamHooks hooks;
  hooks.cancel = &token;
  hooks.chaos = &chaos;
  try {
    (void)run_stream(cfg, hooks);
    FAIL() << "the hung spill must be revoked";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
  }
  EXPECT_EQ(token.cause(), resilience::CancelCause::kStalled);
}

// ---------------------------------------------------------------------
// Strict CLI parsing (satellite)
// ---------------------------------------------------------------------

TEST(StreamCli, ZeroGarbageAndOverflowAreFlagNamedParseErrors) {
  const auto expect_parse_error = [](std::initializer_list<const char*> args,
                                     const std::string& must_mention) {
    try {
      (void)stream::StreamConfig::from_cli(make_cli(args));
      FAIL() << "expected kParse for " << must_mention;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse);
      EXPECT_NE(std::string(e.what()).find(must_mention), std::string::npos)
          << e.what();
    }
  };
  expect_parse_error({"--mem-budget=0"}, "mem-budget");
  expect_parse_error({"--slab-bytes=0"}, "slab-bytes");
  expect_parse_error({"--partitions=0"}, "partitions");
  expect_parse_error({"--mem-budget=12cows"}, "mem-budget");
  expect_parse_error({"--slab-bytes=99999999999999999999999"}, "slab-bytes");
  expect_parse_error({"--mem-budget=-4"}, "mem-budget");
  expect_parse_error({"--spill-dir="}, "spill-dir");
}

TEST(StreamCli, ValidateCatchesUnrunnableCombinations) {
  const auto expect_config_error = [](stream::StreamConfig cfg) {
    try {
      cfg.validate();
      FAIL() << "expected kConfig";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig);
    }
  };
  stream::StreamConfig ok = small_stream();
  ASSERT_NO_THROW(ok.validate());

  stream::StreamConfig tiny_budget = ok;
  tiny_budget.mem_budget = tiny_budget.slab_bytes / 2;  // < one slab
  expect_config_error(tiny_budget);

  stream::StreamConfig no_dir = ok;
  no_dir.mem_budget = no_dir.n;  // workload must overflow, no spill dir
  expect_config_error(no_dir);

  stream::StreamConfig odd_slab = ok;
  odd_slab.slab_bytes = 12;  // not a multiple of 8
  expect_config_error(odd_slab);

  stream::StreamConfig resume_no_ck = ok;
  resume_no_ck.resume = true;
  expect_config_error(resume_no_ck);
}

TEST(StreamCli, StreamIdCoversStreamShapingFlagsOnly) {
  const stream::StreamConfig a = small_stream();
  stream::StreamConfig b = a;
  b.mem_budget = 12345678;  // memory regime: same stream
  EXPECT_EQ(a.stream_id(), b.stream_id());
  stream::StreamConfig c = a;
  c.seed = a.seed + 1;  // different element stream
  EXPECT_NE(a.stream_id(), c.stream_id());
  stream::StreamConfig d = a;
  d.partitions = a.partitions + 1;  // different partitioning
  EXPECT_NE(a.stream_id(), d.stream_id());
}

// ---------------------------------------------------------------------
// Subprocess chaos: SIGKILL mid-spill, resume byte-identically
// ---------------------------------------------------------------------

#ifdef DXBSP_STREAM_BENCH_BIN
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(StreamChaos, SigkillMidSpillResumesByteIdentically) {
  const std::string dir = tmp_dir("chaoskill");
  std::filesystem::create_directories(dir);
  const std::string common = std::string(DXBSP_STREAM_BENCH_BIN) +
                             " --n=8192 --slab-bytes=2048 --mem-budget=16384"
                             " --spill-dir=" + dir + "/spill" +
                             " --checkpoint=" + dir + "/bank.snap";
  // Kill 1: mid-way through the 3rd spill chunk (tmp fsynced, rename
  // pending). Kill 2 on the retry: after the 2nd partition is banked.
  ASSERT_NE(std::system((common +
                         " --chaos=shard=0,attempt=0,phase=spill:3,action=kill"
                         " > /dev/null 2>&1")
                            .c_str()),
            0);
  ASSERT_NE(std::system((common + " --resume"
                                  " --chaos=shard=0,attempt=0,phase=point:2,"
                                  "action=kill > /dev/null 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((common + " --resume --out=" + dir +
                         "/resumed.out > /dev/null 2>&1")
                            .c_str()),
            0);
  const std::string straight_dir = tmp_dir("chaoskill_straight");
  std::filesystem::create_directories(straight_dir);
  ASSERT_EQ(std::system((std::string(DXBSP_STREAM_BENCH_BIN) +
                         " --n=8192 --slab-bytes=2048 --mem-budget=16384"
                         " --spill-dir=" + straight_dir + "/spill --out=" +
                         straight_dir + "/straight.out > /dev/null 2>&1")
                            .c_str()),
            0);
  EXPECT_EQ(slurp(dir + "/resumed.out"), slurp(straight_dir + "/straight.out"));
}

TEST(StreamChaos, InjectedEnospcExitsStructurally) {
  const std::string dir = tmp_dir("chaosenospc");
  std::filesystem::create_directories(dir);
  const int rc = std::system((std::string(DXBSP_STREAM_BENCH_BIN) +
                              " --n=8192 --slab-bytes=2048 --mem-budget=16384"
                              " --spill-dir=" + dir + "/spill"
                              " --faults=disk=enospc:1 --disk-retries=1"
                              " > " + dir + "/out.txt 2>&1")
                                 .c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 69);  // degraded, not a crash
  EXPECT_NE(slurp(dir + "/out.txt").find("STREAM DEGRADED"),
            std::string::npos);
}
#endif  // DXBSP_STREAM_BENCH_BIN

}  // namespace
