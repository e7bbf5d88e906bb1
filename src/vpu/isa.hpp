#pragma once
// A miniature vector instruction set — the register-level view of the
// machines the paper models.
//
// The (d,x)-BSP abstracts a Cray-class CPU as "issues one request per g
// cycles with S outstanding". This ISA makes that concrete: vector
// registers of VLEN words, strided and indexed loads/stores that issue
// one element per cycle into the memory system, and elementwise ALU ops.
// The interpreter (vpu::Core) executes programs with real data semantics
// AND cycle accounting against the same BankArray/Network machinery the
// bulk simulator uses, so the two layers can be cross-validated
// (bench_a10_vpu): if the coarse Vm accounting and the instruction-level
// execution of the same kernel disagree, one of them is wrong.
//
// Loop support: a program is re-executed once per VLEN-sized chunk of a
// data-parallel loop; operands marked `chunk_scaled` have
// trip * VLEN * chunk_scale added to their immediate, which is how the
// base addresses of streamed arrays advance.

#include <cstdint>
#include <string>
#include <vector>

namespace dxbsp::vpu {

/// Vector length of the register file (Cray-style 64).
inline constexpr std::uint64_t kVlen = 64;
/// Number of vector registers.
inline constexpr unsigned kNumVregs = 8;

enum class Opcode : std::uint8_t {
  kVIota,      // v[dst][e] = e
  kVBcast,     // v[dst][e] = imm
  kVAdd,       // v[dst] = v[a] + v[b]
  kVSub,       // v[dst] = v[a] - v[b]
  kVMul,       // v[dst] = v[a] * v[b]
  kVAnd,       // v[dst] = v[a] & v[b]
  kVAddS,      // v[dst] = v[a] + imm
  kVMulS,      // v[dst] = v[a] * imm
  kVShrS,      // v[dst] = v[a] >> imm
  kVLoad,      // v[dst][e] = M[imm + e*stride]         (strided load)
  kVStore,     // M[imm + e*stride] = v[a]              (strided store)
  kVLoadIdx,   // v[dst][e] = M[v[a][e]]                (gather)
  kVStoreIdx,  // M[v[a][e]] = v[b]                     (scatter)
  kVSum,       // v[dst][0] = sum_e v[a][e]             (reduction)
};

/// One instruction. Register fields not used by an opcode are ignored.
struct Instr {
  Opcode op;
  std::uint8_t dst = 0;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint64_t imm = 0;     ///< immediate / base address
  std::uint64_t stride = 1;  ///< for kVLoad / kVStore
  /// If nonzero, trip*kVlen*chunk_scale is added to imm each loop trip
  /// (streaming base advance).
  std::uint64_t chunk_scale = 0;

  [[nodiscard]] std::string to_string() const;
};

/// A straight-line vector program (one loop body).
using Program = std::vector<Instr>;

}  // namespace dxbsp::vpu
