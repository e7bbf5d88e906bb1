// Tests for the model extensions: the (d,x)-LogP variant, Bailey's
// lightly-loaded analysis, and trace persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/dmm.hpp"
#include "core/lightly_loaded.hpp"
#include "core/logp.hpp"
#include "sim/machine_config.hpp"
#include "workload/patterns.hpp"
#include "workload/trace_io.hpp"

namespace dxbsp {
namespace {

TEST(DxLogP, ReducesTowardBspWhenOverheadVanishes) {
  const core::DxBspParams bsp{8, 1, 30, 14, 32};
  const auto logp = core::DxLogPParams::from_bsp(bsp, /*overhead=*/0);
  const core::StepProfile s{1000, 200, 8000};
  // o = 0: injection term (o+g)h = g·h, matching the BSP bank formula
  // modulo the latency bookkeeping (2L vs L).
  EXPECT_EQ(core::dxlogp_step_time(logp, s),
            std::max(bsp.g * s.h_proc, bsp.d * s.h_bank) + bsp.L);
}

TEST(DxLogP, OverheadBindsSmallMessagesCounts) {
  const core::DxLogPParams m{10, 4, 1, 8, 6, 16};
  // h_proc = 100: injection (4+1)*100 = 500 > d*h_bank = 6*50 = 300.
  EXPECT_TRUE(core::overhead_bound(m, {100, 50, 800}));
  EXPECT_EQ(core::dxlogp_step_time(m, {100, 50, 800}), 4 + 500 + 10u);
  // Hot bank: d*h_bank = 6*200 = 1200 > 500.
  EXPECT_FALSE(core::overhead_bound(m, {100, 200, 800}));
  EXPECT_EQ(core::dxlogp_step_time(m, {100, 200, 800}), 4 + 1200 + 10u);
}

TEST(DxLogP, BankBlindLogPMispredictsContention) {
  const core::DxLogPParams m{10, 2, 1, 8, 14, 32};
  const core::StepProfile hot{100, 10000, 800};
  EXPECT_GT(core::dxlogp_step_time(m, hot), 10 * core::logp_step_time(m, hot));
}

TEST(DxLogP, RoundTripAddsLatencyAndOverhead) {
  const core::DxLogPParams m{10, 2, 1, 8, 6, 16};
  const core::StepProfile s{100, 10, 800};
  EXPECT_EQ(core::dxlogp_roundtrip_time(m, s),
            core::dxlogp_step_time(m, s) + m.L + m.o);
}

TEST(DxDmm, StepTimeAndRelationToBsp) {
  const core::DxDmmParams m{8, 6, 16};
  EXPECT_EQ(m.modules(), 128u);
  // Processor-bound step.
  EXPECT_EQ(core::dxdmm_step_time(m, {1000, 10, 8000}), 1000u);
  // Module-bound step.
  EXPECT_EQ(core::dxdmm_step_time(m, {1000, 500, 8000}), 3000u);
  // Classic DMM has unit-delay modules.
  EXPECT_EQ(core::dmm_step_time({1000, 500, 8000}), 1000u);
  EXPECT_EQ(core::dmm_step_time({100, 500, 8000}), 500u);

  // The (d,x)-DMM lower-bounds the (d,x)-BSP at g = 1; the gap is the
  // latency bookkeeping.
  const core::DxBspParams bsp{8, 1, 30, 6, 16};
  for (const auto& s :
       {core::StepProfile{1000, 10, 8000}, core::StepProfile{10, 900, 8000},
        core::StepProfile{500, 500, 8000}}) {
    EXPECT_LE(core::dxdmm_step_time(core::DxDmmParams::from_bsp(bsp), s),
              core::dxbsp_step_time(bsp, s));
    EXPECT_EQ(core::dxbsp_minus_dxdmm(bsp, s), 2 * bsp.L);
  }
}

TEST(LightlyLoaded, ProbabilityBasics) {
  EXPECT_EQ(core::lightly_loaded_conflict_probability(1, 64, 6), 0.0);
  const double p2 = core::lightly_loaded_conflict_probability(2, 64, 6);
  EXPECT_GT(p2, 0.0);
  EXPECT_LT(p2, 1.0);
  // More banks, fewer conflicts; more requesters, more conflicts.
  EXPECT_GT(core::lightly_loaded_conflict_probability(8, 64, 6),
            core::lightly_loaded_conflict_probability(8, 512, 6));
  EXPECT_GT(core::lightly_loaded_conflict_probability(16, 64, 6),
            core::lightly_loaded_conflict_probability(4, 64, 6));
  // Longer delay, more conflicts.
  EXPECT_GT(core::lightly_loaded_conflict_probability(8, 64, 14),
            core::lightly_loaded_conflict_probability(8, 64, 6));
  EXPECT_THROW((void)core::lightly_loaded_conflict_probability(2, 0, 6),
               std::invalid_argument);
}

TEST(LightlyLoaded, AccessTimeIsLatencyPlusDelayPlusPenalty) {
  const double t1 = core::lightly_loaded_access_time(1, 64, 6, 20);
  EXPECT_DOUBLE_EQ(t1, 26.0);  // no competitors, no penalty
  const double t8 = core::lightly_loaded_access_time(8, 64, 6, 20);
  EXPECT_GT(t8, t1);
  EXPECT_LT(t8, t1 + 3.0);  // penalty bounded by d/2
}

TEST(LightlyLoaded, BanksNeededGrowsWithDelay) {
  const auto b6 = core::lightly_loaded_banks_needed(8, 6, 0.05);
  const auto b14 = core::lightly_loaded_banks_needed(8, 14, 0.05);
  EXPECT_GE(b14, b6);
  EXPECT_GE(b6, 8u);
  EXPECT_THROW((void)core::lightly_loaded_banks_needed(8, 6, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)core::lightly_loaded_banks_needed(8, 6, 1.0),
               std::invalid_argument);
}

TEST(LightlyLoaded, ConflictAvoidanceDemandsMoreThanThroughputBalance) {
  // The regimes answer Bailey's question differently: making conflicts
  // *rare* for single outstanding requests needs ~(p-1)·d/target banks —
  // far beyond the d·p that balances heavy-load throughput. The paper's
  // machines sit in between: enough banks for throughput plus tail
  // headroom, nowhere near light-load conflict-freedom.
  const std::uint64_t p = 8, d = 14;
  const auto bailey = core::lightly_loaded_banks_needed(p, d, 0.10);
  EXPECT_GT(bailey, p * d);  // more than throughput balance...
  const auto j90 = sim::MachineConfig::cray_j90().banks();
  EXPECT_GT(bailey, j90 / 2);  // ...and at least commensurate with real
                               // machines' provisioning.
}

TEST(TraceIo, BinaryRoundTrip) {
  const auto addrs = workload::uniform_random(10000, 1ULL << 40, 3);
  const std::string path = "/tmp/dxbsp_trace_test.bin";
  workload::save_trace(path, addrs);
  EXPECT_EQ(workload::load_trace(path), addrs);
  std::remove(path.c_str());
}

TEST(TraceIo, BinaryRejectsGarbage) {
  const std::string path = "/tmp/dxbsp_trace_garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a trace";
  }
  EXPECT_THROW((void)workload::load_trace(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW((void)workload::load_trace("/nonexistent/nowhere.bin"),
               std::runtime_error);
}

TEST(TraceIo, BinaryRejectsLyingHeaderCount) {
  // A corrupt header count must fail with a clear error before any
  // count-sized allocation — not OOM, not read garbage.
  const auto addrs = workload::uniform_random(64, 1ULL << 30, 5);
  const std::string path = "/tmp/dxbsp_trace_lying_count.bin";
  workload::save_trace(path, addrs);
  {
    // Overwrite the count field (bytes 8..16) with an absurd value.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const std::uint64_t lie = ~0ULL / 8;  // would "need" ~2^61 bytes
    f.write(reinterpret_cast<const char*>(&lie), sizeof(lie));
  }
  try {
    (void)workload::load_trace(path);
    FAIL() << "expected rejection of the lying count";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("payload bytes"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, BinaryRejectsTruncatedPayload) {
  const auto addrs = workload::uniform_random(64, 1ULL << 30, 6);
  const std::string path = "/tmp/dxbsp_trace_truncated.bin";
  workload::save_trace(path, addrs);
  std::filesystem::resize_file(path, 16 + 63 * 8 + 3);  // mid-word cut
  EXPECT_THROW((void)workload::load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, BinaryEmptyTraceRoundTrips) {
  const std::string path = "/tmp/dxbsp_trace_empty.bin";
  workload::save_trace(path, {});
  EXPECT_TRUE(workload::load_trace(path).empty());
  std::remove(path.c_str());
}

TEST(TraceIo, BinaryRefusesRetiredV1Format) {
  // dxbsptr1: magic and count, then the words, with no CRC.
  std::vector<unsigned char> v1 = {'d', 'x', 'b', 's', 'p', 't', 'r', '1',
                                   1, 0, 0, 0, 0, 0, 0, 0};
  v1.resize(v1.size() + 8, 0x2a);
  const auto res = workload::parse_trace(v1, "old.bin");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code(), ErrorCode::kCorruptInput);
  const std::string what = res.error().what();
  EXPECT_NE(what.find("old.bin"), std::string::npos) << what;
  EXPECT_NE(what.find("dxbsptr1"), std::string::npos) << what;
  EXPECT_NE(what.find("retired"), std::string::npos) << what;
}

TEST(TraceIo, TextRoundTripWithComments) {
  const std::vector<std::uint64_t> addrs = {0, 7, 123456789012345ULL};
  std::stringstream ss;
  workload::save_trace_text(ss, addrs);
  ss.seekg(0);
  EXPECT_EQ(workload::load_trace_text(ss), addrs);

  std::stringstream with_comments("# header\n5\n\n9\n");
  EXPECT_EQ(workload::load_trace_text(with_comments),
            (std::vector<std::uint64_t>{5, 9}));

  std::stringstream bad("5\nnot-a-number\n");
  EXPECT_THROW((void)workload::load_trace_text(bad), std::runtime_error);
}

}  // namespace
}  // namespace dxbsp
