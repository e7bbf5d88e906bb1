// Tests for the resilience subsystem: the error taxonomy, cooperative
// cancellation (tokens, deadlines, signals, watchdog), snapshot
// integrity (roundtrip plus fuzz-style corruption sweeps), and
// SweepRunner's core promise — a sweep interrupted at any point and
// resumed is byte-identical to an uninterrupted run, at any pool size.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "resilience/cancel.hpp"
#include "resilience/error.hpp"
#include "resilience/framed_file.hpp"
#include "resilience/snapshot.hpp"
#include "resilience/sweep.hpp"
#include "sim/machine.hpp"
#include "util/thread_pool.hpp"
#include "workload/patterns.hpp"
#include "test_tmp.hpp"

namespace dxbsp {
namespace {

using resilience::CancelCause;
using resilience::CancelToken;
using resilience::CheckpointWriter;
using resilience::Deadline;
using resilience::Snapshot;
using resilience::SnapshotRecord;
using resilience::SweepOptions;
using resilience::SweepRunner;
using resilience::SweepStatus;

std::string tmp_path(const std::string& name) {
  return testing_tmp::path("dxbsp_resilience_" + name);
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os);
}

// ---------------------------------------------------------------- errors

TEST(ErrorTaxonomy, CodesHaveStableNamesAndExitCodes) {
  EXPECT_STREQ(error_code_name(ErrorCode::kConfig), "config");
  EXPECT_STREQ(error_code_name(ErrorCode::kCorruptSnapshot),
               "corrupt-snapshot");
  EXPECT_STREQ(error_code_name(ErrorCode::kInterrupted), "interrupted");
  EXPECT_EQ(exit_code(ErrorCode::kConfig), 64);
  EXPECT_EQ(exit_code(ErrorCode::kParse), 64);
  EXPECT_EQ(exit_code(ErrorCode::kCorruptSnapshot), 65);
  EXPECT_EQ(exit_code(ErrorCode::kIo), 74);
  EXPECT_EQ(exit_code(ErrorCode::kInterrupted), 75);
  EXPECT_EQ(exit_code(ErrorCode::kDegraded), 69);
  EXPECT_EQ(exit_code(ErrorCode::kInternal), 70);
}

TEST(ErrorTaxonomy, ErrorCarriesCodeAndIsRuntimeError) {
  const Error e(ErrorCode::kParse, "bad flag");
  EXPECT_EQ(e.code(), ErrorCode::kParse);
  EXPECT_STREQ(e.what(), "parse: bad flag");
  // Pre-taxonomy catch sites (catch std::runtime_error) keep working.
  try {
    raise(ErrorCode::kIo, "disk gone");
    FAIL();
  } catch (const std::runtime_error& re) {
    EXPECT_NE(std::string(re.what()).find("disk gone"), std::string::npos);
  }
}

TEST(ErrorTaxonomy, ExpectedCarriesValueOrRethrows) {
  const Expected<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  const Expected<int> bad(Error(ErrorCode::kCorruptInput, "nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kCorruptInput);
  try {
    (void)bad.value();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptInput);
  }
}

// ---------------------------------------------------- cancellation basics

TEST(Cancel, FirstCauseWins) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.cause(), CancelCause::kNone);
  token.cancel(CancelCause::kSignal);
  token.cancel(CancelCause::kDeadline);  // loses the race
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.cause(), CancelCause::kSignal);
}

TEST(Cancel, DeadlineExpiresAndLatchesCause) {
  CancelToken token;
  token.set_deadline(Deadline(1e-9));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.cause(), CancelCause::kDeadline);
}

TEST(Cancel, NonPositiveDeadlineNeverExpires) {
  const Deadline none(0.0);
  EXPECT_FALSE(none.active());
  EXPECT_FALSE(none.expired());
  CancelToken token;
  token.set_deadline(none);
  EXPECT_FALSE(token.expired());
}

TEST(Cancel, RaiseIfExpiredThrowsInterruptedNamingTheLoop) {
  CancelToken token;
  token.raise_if_expired("quiet");  // not expired: no-op
  token.cancel();
  try {
    token.raise_if_expired("EventLoop");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
    EXPECT_NE(std::string(e.what()).find("EventLoop"), std::string::npos);
  }
}

TEST(Cancel, MachineRunStopsOnTrippedToken) {
  sim::MachineConfig cfg;
  cfg.name = "cancel";
  cfg.processors = 4;
  cfg.gap = 1;
  cfg.latency = 8;
  cfg.bank_delay = 4;
  cfg.expansion = 2;
  cfg.slackness = 64 * 1024;
  sim::Machine machine(cfg);
  CancelToken token;
  machine.set_cancel(&token);
  const auto addrs = workload::uniform_random(1 << 14, 1ULL << 20, 3);
  EXPECT_EQ(machine.scatter(addrs).n, addrs.size());  // healthy run first
  token.cancel();
  try {
    (void)machine.scatter(addrs);
    FAIL() << "expected interruption";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
  }
}

// The BSP-delivery ablation serves its whole route in one loop outside
// the event engines; it polls the token at the same cadence.
TEST(Cancel, ScatterBulkDeliveryStopsOnTrippedToken) {
  sim::MachineConfig cfg;
  cfg.name = "cancel";
  cfg.processors = 4;
  cfg.gap = 1;
  cfg.latency = 8;
  cfg.bank_delay = 4;
  cfg.expansion = 2;
  sim::Machine machine(cfg);
  CancelToken token;
  machine.set_cancel(&token);
  const auto addrs = workload::uniform_random(1 << 14, 1ULL << 20, 3);
  EXPECT_EQ(machine.scatter_bulk_delivery(addrs).n, addrs.size());
  token.cancel();
  try {
    (void)machine.scatter_bulk_delivery(addrs);
    FAIL() << "expected interruption";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
  }
}

TEST(Cancel, ParallelForStopsAndReportsInterrupted) {
  util::ThreadPool pool(2);
  CancelToken token;
  std::atomic<std::size_t> ran{0};
  try {
    pool.parallel_for(
        1000,
        [&](std::size_t i) {
          ran.fetch_add(1);
          if (i == 3) token.cancel();
        },
        &token);
    FAIL() << "expected interruption";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
  }
  EXPECT_LT(ran.load(), 1000u);
}

TEST(Cancel, ParallelForPrefersRealErrorsOverInterruption) {
  util::ThreadPool pool(2);
  CancelToken token;
  try {
    pool.parallel_for(
        100,
        [&](std::size_t i) {
          if (i == 2) {
            token.cancel();
            raise(ErrorCode::kInternal, "worker failed");
          }
        },
        &token);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

TEST(Cancel, WatchdogTripsOnStall) {
  CancelToken token;
  resilience::Watchdog dog(token, std::chrono::milliseconds(50));
  // No heartbeats: the token must trip within a generous window.
  const auto start = std::chrono::steady_clock::now();
  while (!token.expired() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.cause(), CancelCause::kStalled);
}

TEST(Cancel, WatchdogStaysQuietWhileProgressing) {
  CancelToken token;
  resilience::Watchdog dog(token, std::chrono::milliseconds(200));
  for (int i = 0; i < 20; ++i) {
    token.heartbeat();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(token.expired());
}

// ------------------------------------------------------------- snapshots

TEST(Snapshot, Crc32MatchesKnownVector) {
  const std::string s = "123456789";
  EXPECT_EQ(resilience::crc32(
                {reinterpret_cast<const unsigned char*>(s.data()), s.size()}),
            0xCBF43926u);
  EXPECT_EQ(resilience::crc32({}), 0u);
}

SnapshotRecord sample_record(std::uint64_t key) {
  SnapshotRecord r;
  r.key = key;
  r.rng_state = key * 1000 + 1;
  r.failed_requests = key % 3;
  r.aux = {key + 10, key + 20, std::bit_cast<std::uint64_t>(1.5 * key), 0};
  r.result.cycles = key * 7 + 1;
  r.result.n = 64;
  r.result.max_bank_load = 5;
  r.result.max_proc_requests = 9;
  r.result.stall_cycles = 2;
  r.result.cache_hits = key * 5;
  r.result.cache_misses = key * 3 + 1;
  r.result.cache_evictions = key;
  r.result.max_proc_miss = key % 7;
  r.result.breakdown.cache_hit = key * 2;
  r.result.retries = key;
  r.result.nacks = key + 1;
  r.result.failovers = key / 2;
  r.result.degraded_cycles = 3 * key;
  r.result.bank_utilization = 0.25 + 0.125 * static_cast<double>(key % 4);
  return r;
}

Snapshot sample_snapshot() {
  Snapshot snap;
  snap.sweep_id = 0xDEADBEEFCAFEF00DULL;
  snap.records = {sample_record(1), sample_record(2), sample_record(42)};
  return snap;
}

TEST(Snapshot, SerializeParseRoundtrip) {
  const Snapshot snap = sample_snapshot();
  const auto bytes = snap.serialize();
  EXPECT_EQ(bytes.size(),
            resilience::kHeaderBytes +
                snap.records.size() * resilience::kRecordBytes);
  const auto parsed = Snapshot::parse(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.error().what();
  const Snapshot& got = parsed.value();
  EXPECT_EQ(got.sweep_id, snap.sweep_id);
  ASSERT_EQ(got.records.size(), snap.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i].key, snap.records[i].key);
    EXPECT_EQ(got.records[i].rng_state, snap.records[i].rng_state);
    EXPECT_EQ(got.records[i].failed_requests, snap.records[i].failed_requests);
    EXPECT_EQ(got.records[i].aux, snap.records[i].aux);
    EXPECT_EQ(got.records[i].result.cycles, snap.records[i].result.cycles);
    EXPECT_EQ(got.records[i].result.retries, snap.records[i].result.retries);
    EXPECT_EQ(got.records[i].result.cache_misses,
              snap.records[i].result.cache_misses);
    EXPECT_EQ(got.records[i].result.cache_evictions,
              snap.records[i].result.cache_evictions);
    EXPECT_EQ(got.records[i].result.max_proc_miss,
              snap.records[i].result.max_proc_miss);
    EXPECT_EQ(got.records[i].result.breakdown.cache_hit,
              snap.records[i].result.breakdown.cache_hit);
    EXPECT_DOUBLE_EQ(got.records[i].result.bank_utilization,
                     snap.records[i].result.bank_utilization);
  }
  // Re-serializing the parse yields the same bytes: full fidelity.
  EXPECT_EQ(got.serialize(), bytes);
}

TEST(Snapshot, LoadMissingFileIsIoError) {
  const auto r = Snapshot::load(tmp_path("definitely_missing.snap"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIo);
}

TEST(Snapshot, RejectsWrongVersion) {
  auto bytes = sample_snapshot().serialize();
  bytes[8] = 99;  // version field follows the 8-byte magic
  const auto r = Snapshot::parse(bytes, "test");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);
  EXPECT_NE(std::string(r.error().what()).find("version"), std::string::npos);
}

// A self-consistent header from a retired format (version AND record
// size agree on v1 or v2) is a stale checkpoint: refused with kConfig
// and a "predates this build" message, never parsed and never a crash.
// A version flipped by bit rot disagrees with the record size and stays
// kCorruptSnapshot (the version field sits outside the CRC span — the
// cross-check below is its only guard, see RejectsEverySingleBitFlip).
TEST(Snapshot, RetiredVersionIsConfigErrorNotCorruption) {
  auto header = [](std::uint32_t version, std::uint64_t record_bytes) {
    std::vector<unsigned char> b = {'D', 'X', 'S', 'N', 'A', 'P', '0', '1'};
    auto put = [&b](const void* p, std::size_t n) {
      const auto* c = static_cast<const unsigned char*>(p);
      b.insert(b.end(), c, c + n);
    };
    const std::uint32_t crc = 0;
    const std::uint64_t sweep_id = 7, count = 0;
    put(&version, 4);
    put(&crc, 4);
    put(&sweep_id, 8);
    put(&count, 8);
    put(&record_bytes, 8);
    return b;
  };

  for (const auto& [version, record_bytes] :
       {std::pair<std::uint32_t, std::uint64_t>{1, (3 + 4 + 14 + 1) * 8},
        std::pair<std::uint32_t, std::uint64_t>{2, (3 + 4 + 15 + 1 + 6) * 8}}) {
    const auto r = Snapshot::parse(header(version, record_bytes), "old");
    ASSERT_FALSE(r.ok()) << "v" << version;
    EXPECT_EQ(r.error().code(), ErrorCode::kConfig) << "v" << version;
    EXPECT_NE(std::string(r.error().what()).find("predates"),
              std::string::npos);
  }

  // Version 2 claiming the v3 record size is NOT a believable old
  // checkpoint — that shape only arises from damage.
  const auto r = Snapshot::parse(header(2, resilience::kRecordBytes), "bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);
}

TEST(Snapshot, RejectsDuplicateKeys) {
  Snapshot snap = sample_snapshot();
  snap.records.push_back(snap.records.front());
  const auto r = Snapshot::parse(snap.serialize(), "test");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);
}

// Fuzz-style: every strict prefix of a valid snapshot must fail cleanly —
// no crash, no garbage acceptance, always Error{kCorruptSnapshot}.
TEST(Snapshot, RejectsEveryTruncation) {
  const auto bytes = sample_snapshot().serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<unsigned char> cut(bytes.begin(),
                                         bytes.begin() + len);
    const auto r = Snapshot::parse(cut, "trunc");
    ASSERT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
    EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot) << len;
  }
}

// Fuzz-style: flipping any single bit anywhere in the file must be
// detected (magic/version checks up front, CRC for everything else).
TEST(Snapshot, RejectsEverySingleBitFlip) {
  const auto bytes = sample_snapshot().serialize();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[i] ^= static_cast<unsigned char>(1u << bit);
      const auto r = Snapshot::parse(mutated, "flip");
      ASSERT_FALSE(r.ok()) << "byte " << i << " bit " << bit;
      EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Snapshot, LoadRejectsCorruptFileOnDisk) {
  const std::string path = tmp_path("corrupt.snap");
  auto bytes = sample_snapshot().serialize();
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(path, bytes);
  const auto r = Snapshot::load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCorruptSnapshot);
  std::remove(path.c_str());
}

TEST(Snapshot, CheckpointWriterProducesLoadableFileAndNoTmpResidue) {
  const std::string path = tmp_path("writer.snap");
  const Snapshot snap = sample_snapshot();
  CheckpointWriter writer(path, snap.sweep_id);
  writer.flush(snap.records);
  const auto r = Snapshot::load(path);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value().records.size(), snap.records.size());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "tmp file left behind after rename";
  // A second flush overwrites atomically.
  writer.flush({snap.records.data(), 1});
  EXPECT_EQ(Snapshot::load(path).value().records.size(), 1u);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- sweep runner

TEST(Sweep, IdIsSensitiveToBenchAndParamsAndOrder) {
  const auto a = resilience::sweep_id("bench_a", {1, 2});
  EXPECT_EQ(a, resilience::sweep_id("bench_a", {1, 2}));
  EXPECT_NE(a, resilience::sweep_id("bench_b", {1, 2}));
  EXPECT_NE(a, resilience::sweep_id("bench_a", {2, 1}));
  EXPECT_NE(a, resilience::sweep_id("bench_a", {1, 2, 3}));
}

// The shared point function for sweep tests: a real (small) simulation
// with an injected fault plan, so records carry live fault telemetry.
SnapshotRecord simulate_point(std::uint64_t key, const CancelToken* token) {
  sim::MachineConfig cfg;
  cfg.name = "sweeptest";
  cfg.processors = 4;
  cfg.gap = 1;
  cfg.latency = 8;
  cfg.bank_delay = 4;
  cfg.expansion = 1 + (key % 4);
  cfg.slackness = 64 * 1024;
  fault::FaultConfig fc;
  fc.seed = 17;
  fc.drop_rate = 0.05;
  fc.retry.max_retries = 8;
  auto plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());
  sim::Machine machine(cfg);
  if (token != nullptr) machine.set_cancel(token);
  machine.inject(plan);
  const auto addrs = workload::k_hot(512, 1 + key, 1ULL << 20, 100 + key);
  const auto out = machine.scatter_faulty(addrs);
  SnapshotRecord rec;
  rec.key = key;
  rec.rng_state = 100 + key;
  rec.failed_requests = out.ok() ? 0 : out.degraded->failed_requests;
  rec.aux[0] = key * 3;
  rec.result = out.bulk;
  return rec;
}

std::vector<std::uint64_t> sweep_keys() {
  return {2, 3, 5, 7, 11, 13, 17, 19};
}

SweepOptions quiet_options() {
  SweepOptions opt;
  opt.handle_signals = false;  // keep gtest's signal handling untouched
  return opt;
}

TEST(Sweep, FreshRunCompletesAndExposesRecords) {
  SweepRunner runner(resilience::sweep_id("t", {1}), quiet_options());
  const auto keys = sweep_keys();
  const auto report =
      runner.run(keys, [&](std::uint64_t k) {
        return simulate_point(k, &runner.token());
      });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.status, SweepStatus::kCompleted);
  EXPECT_EQ(report.completed, keys.size());
  EXPECT_EQ(report.resumed, 0u);
  for (const auto k : keys) {
    ASSERT_TRUE(runner.has_record(k));
    EXPECT_EQ(runner.record(k).key, k);
    EXPECT_GT(runner.record(k).result.cycles, 0u);
  }
}

TEST(Sweep, DuplicateKeysRefused) {
  SweepRunner runner(1, quiet_options());
  const std::vector<std::uint64_t> dup = {4, 4};
  try {
    runner.run(dup, [](std::uint64_t k) { return sample_record(k); });
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

TEST(Sweep, DeadlineInterruptsWithValidCheckpoint) {
  const std::string path = tmp_path("deadline.snap");
  std::remove(path.c_str());
  auto opt = quiet_options();
  opt.checkpoint_path = path;
  opt.deadline_seconds = 1e-9;  // expires before the first point
  const auto id = resilience::sweep_id("t", {2});
  SweepRunner runner(id, opt);
  const auto keys = sweep_keys();
  const auto report = runner.run(
      keys, [&](std::uint64_t k) { return simulate_point(k, nullptr); });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status, SweepStatus::kInterrupted);
  EXPECT_EQ(report.cause, CancelCause::kDeadline);
  EXPECT_LT(report.completed, report.total);
  EXPECT_EQ(report.checkpoint, path);
  // The promised final flush happened and the file is valid.
  const auto snap = Snapshot::load(path);
  ASSERT_TRUE(snap.ok()) << snap.error().what();
  EXPECT_EQ(snap.value().sweep_id, id);
  EXPECT_EQ(snap.value().records.size(), report.completed);
  std::remove(path.c_str());
}

TEST(Sweep, ResumeSkipsCompletedPoints) {
  const std::string path = tmp_path("skip.snap");
  std::remove(path.c_str());
  const auto id = resilience::sweep_id("t", {3});
  const auto keys = sweep_keys();

  // First run: cancel after 3 points.
  auto opt = quiet_options();
  opt.checkpoint_path = path;
  {
    SweepRunner runner(id, opt);
    std::atomic<int> n{0};
    const auto report = runner.run(keys, [&](std::uint64_t k) {
      auto rec = simulate_point(k, nullptr);
      if (n.fetch_add(1) + 1 == 3) runner.token().cancel();
      return rec;
    });
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.completed, 3u);
  }

  // Second run resumes: exactly the other 5 points are recomputed.
  auto opt2 = quiet_options();
  opt2.resume_path = path;
  SweepRunner runner(id, opt2);
  std::atomic<int> recomputed{0};
  const auto report = runner.run(keys, [&](std::uint64_t k) {
    recomputed.fetch_add(1);
    return simulate_point(k, nullptr);
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.resumed, 3u);
  EXPECT_EQ(recomputed.load(), 5);
  std::remove(path.c_str());
}

TEST(Sweep, ResumeRefusesMismatchedSweepId) {
  const std::string path = tmp_path("mismatch.snap");
  std::remove(path.c_str());
  auto opt = quiet_options();
  opt.checkpoint_path = path;
  {
    SweepRunner runner(resilience::sweep_id("t", {4}), opt);
    (void)runner.run(sweep_keys(), [&](std::uint64_t k) {
      return simulate_point(k, nullptr);
    });
  }
  auto opt2 = quiet_options();
  opt2.resume_path = path;
  // Different seed/grid fingerprint: silently mixing results would be
  // data corruption, so resume must refuse.
  SweepRunner other(resilience::sweep_id("t", {5}), opt2);
  try {
    (void)other.run(sweep_keys(),
                    [&](std::uint64_t k) { return simulate_point(k, nullptr); });
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
  std::remove(path.c_str());
}

TEST(Sweep, ResumeRejectsSnapshotKeyOutsideGrid) {
  const std::string path = tmp_path("alienkey.snap");
  Snapshot snap;
  snap.sweep_id = resilience::sweep_id("t", {6});
  snap.records = {sample_record(999)};  // not a key of this grid
  write_file(path, snap.serialize());
  auto opt = quiet_options();
  opt.resume_path = path;
  SweepRunner runner(snap.sweep_id, opt);
  try {
    (void)runner.run(sweep_keys(),
                     [&](std::uint64_t k) { return simulate_point(k, nullptr); });
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptSnapshot);
  }
  std::remove(path.c_str());
}

// The tentpole guarantee: interrupt the sweep after its k-th point for
// every k, resume each, and require the final checkpoint — results,
// fault telemetry and all — to be byte-identical to an uninterrupted
// run's.
TEST(Sweep, ResumeIsByteIdenticalForEveryInterruptionPoint) {
  const auto id = resilience::sweep_id("t", {7});
  const auto keys = sweep_keys();

  const std::string ref_path = tmp_path("ref.snap");
  std::remove(ref_path.c_str());
  {
    auto opt = quiet_options();
    opt.checkpoint_path = ref_path;
    SweepRunner runner(id, opt);
    const auto report = runner.run(keys, [&](std::uint64_t k) {
      return simulate_point(k, &runner.token());
    });
    ASSERT_TRUE(report.ok());
  }
  const auto reference = read_file(ref_path);

  for (std::size_t k = 1; k < keys.size(); ++k) {
    const std::string path =
        tmp_path("interrupt_" + std::to_string(k) + ".snap");
    std::remove(path.c_str());
    {
      auto opt = quiet_options();
      opt.checkpoint_path = path;
      SweepRunner runner(id, opt);
      std::atomic<std::size_t> n{0};
      const auto report = runner.run(keys, [&](std::uint64_t key) {
        auto rec = simulate_point(key, nullptr);
        if (n.fetch_add(1) + 1 == k) runner.token().cancel();
        return rec;
      });
      ASSERT_FALSE(report.ok()) << "k=" << k;
      ASSERT_EQ(report.completed, k) << "k=" << k;
    }
    {
      auto opt = quiet_options();
      opt.resume_path = path;
      SweepRunner runner(id, opt);
      const auto report = runner.run(keys, [&](std::uint64_t key) {
        return simulate_point(key, &runner.token());
      });
      ASSERT_TRUE(report.ok()) << "k=" << k;
      ASSERT_EQ(report.resumed, k) << "k=" << k;
    }
    EXPECT_EQ(read_file(path), reference) << "k=" << k;
    std::remove(path.c_str());
  }
  std::remove(ref_path.c_str());
}

// Pool size must not leak into results: records are keyed and slotted,
// so the checkpoint is identical for serial and any thread count.
TEST(Sweep, CheckpointIdenticalAcrossPoolSizes) {
  const auto id = resilience::sweep_id("t", {8});
  const auto keys = sweep_keys();
  std::vector<unsigned char> reference;
  for (const std::uint64_t threads : {0ULL, 2ULL, 4ULL}) {
    const std::string path =
        tmp_path("pool_" + std::to_string(threads) + ".snap");
    std::remove(path.c_str());
    auto opt = quiet_options();
    opt.checkpoint_path = path;
    opt.threads = threads;
    SweepRunner runner(id, opt);
    const auto report = runner.run(keys, [&](std::uint64_t k) {
      return simulate_point(k, &runner.token());
    });
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    const auto bytes = read_file(path);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
    std::remove(path.c_str());
  }
}

TEST(Sweep, ResumePathAloneStillCheckpoints) {
  // --resume without --checkpoint must keep writing to the resume file,
  // so a twice-interrupted run loses nothing.
  const std::string path = tmp_path("resume_only.snap");
  std::remove(path.c_str());
  const auto id = resilience::sweep_id("t", {9});
  auto opt = quiet_options();
  opt.resume_path = path;  // no checkpoint_path; missing file = fresh run
  SweepRunner runner(id, opt);
  const auto report = runner.run(sweep_keys(), [&](std::uint64_t k) {
    return simulate_point(k, nullptr);
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.checkpoint, path);
  EXPECT_TRUE(Snapshot::load(path).ok());
  std::remove(path.c_str());
}

TEST(Cancel, ResetRearmsATrippedToken) {
  CancelToken token;
  token.heartbeat();
  token.cancel(CancelCause::kDeadline);
  ASSERT_TRUE(token.expired());
  token.reset();
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.cause(), CancelCause::kNone);
  EXPECT_EQ(token.heartbeats(), 0u) << "progress counter must restart too";
}

TEST(Sweep, RunnerIsReusableAfterItsTokenTripped) {
  // A watchdog (or revoked lease) trips the token mid-sweep; the SAME
  // runner must be runnable again — run() re-arms the token instead of
  // inheriting the previous invocation's cancelled state.
  const std::string path = tmp_path("reuse.snap");
  std::remove(path.c_str());
  auto opt = quiet_options();
  opt.checkpoint_path = path;
  opt.resume_path = path;
  SweepRunner runner(resilience::sweep_id("t", {7}), opt);
  const auto keys = sweep_keys();
  std::size_t produced = 0;
  const auto first = runner.run(keys, [&](std::uint64_t k) {
    if (++produced == 3) runner.token().cancel(CancelCause::kStalled);
    return simulate_point(k, nullptr);
  });
  EXPECT_EQ(first.status, SweepStatus::kInterrupted);
  EXPECT_EQ(first.cause, CancelCause::kStalled);
  EXPECT_LT(first.completed, keys.size());

  // Second run() on the same runner: must resume and complete, not
  // report the stale kStalled immediately.
  const auto second = runner.run(
      keys, [&](std::uint64_t k) { return simulate_point(k, nullptr); });
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(second.cause, CancelCause::kNone);
  EXPECT_EQ(second.completed, keys.size());
  EXPECT_EQ(second.resumed, first.completed);
  std::remove(path.c_str());
}

TEST(Sweep, ReportWritesMachineReadableJson) {
  resilience::SweepReport report;
  report.status = SweepStatus::kInterrupted;
  report.cause = CancelCause::kStalled;
  report.total = 9;
  report.completed = 4;
  report.resumed = 2;
  report.checkpoint = "runs/sweep.snap";
  std::ostringstream os;
  obs::JsonWriter w(os);
  report.write_json(w);
  // Coordinators parse this instead of scraping the human-readable
  // INTERRUPTED line: it must round-trip through the JSON reader.
  const auto parsed = obs::JsonValue::parse(os.str(), "test");
  ASSERT_TRUE(parsed.ok()) << parsed.error().what();
  const auto& v = parsed.value();
  ASSERT_NE(v.find("status"), nullptr);
  EXPECT_EQ(v.find("status")->as_string(), "interrupted");
  EXPECT_EQ(v.find("cause")->as_string(), "stalled");
  EXPECT_EQ(v.find("total")->as_u64(), 9u);
  EXPECT_EQ(v.find("completed")->as_u64(), 4u);
  EXPECT_EQ(v.find("resumed")->as_u64(), 2u);
  EXPECT_EQ(v.find("checkpoint")->as_string(), "runs/sweep.snap");
}

}  // namespace
}  // namespace dxbsp
