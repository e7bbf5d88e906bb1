#include "vpu/core.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dxbsp::vpu {

namespace {
const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kVIota: return "viota";
    case Opcode::kVBcast: return "vbcast";
    case Opcode::kVAdd: return "vadd";
    case Opcode::kVSub: return "vsub";
    case Opcode::kVMul: return "vmul";
    case Opcode::kVAnd: return "vand";
    case Opcode::kVAddS: return "vadds";
    case Opcode::kVMulS: return "vmuls";
    case Opcode::kVShrS: return "vshrs";
    case Opcode::kVLoad: return "vload";
    case Opcode::kVStore: return "vstore";
    case Opcode::kVLoadIdx: return "vloadx";
    case Opcode::kVStoreIdx: return "vstorex";
    case Opcode::kVSum: return "vsum";
  }
  return "?";
}
}  // namespace

std::string Instr::to_string() const {
  std::string s = opcode_name(op);
  s += " v" + std::to_string(dst) + ", v" + std::to_string(a) + ", v" +
       std::to_string(b) + ", imm=" + std::to_string(imm);
  if (stride != 1) s += ", stride=" + std::to_string(stride);
  return s;
}

Core::Core(sim::MachineConfig config, std::uint64_t memory_words)
    : config_(std::move(config)),
      mapping_(config_.banks()),
      banks_(config_.banks(), config_.bank_delay,
             sim::BankCacheConfig{config_.bank_cache_lines,
                                  config_.cache_line_words,
                                  config_.cached_delay},
             config_.combine_requests, config_.bank_ports),
      memory_(memory_words, 0),
      vregs_(kNumVregs, std::vector<std::uint64_t>(kVlen, 0)),
      reg_ready_(kNumVregs, 0) {
  config_.validate();
}

std::uint64_t Core::load(std::uint64_t addr) const { return memory_.at(addr); }

void Core::store(std::uint64_t addr, std::uint64_t value) {
  memory_.at(addr) = value;
}

RunResult Core::run(const Program& program, std::uint64_t trips) {
  if (config_.combine_requests) {
    // A run is one op to the bank array, and any word of memory may be
    // requested again by a later element, instruction or trip, so every
    // word is combinable.
    std::vector<std::uint64_t> words(memory_.size());
    std::iota(words.begin(), words.end(), std::uint64_t{0});
    banks_.reset(words);
  } else {
    banks_.reset();
  }
  for (auto& r : reg_ready_) r = 0;
  pipe_free_ = 0;
  last_drain_ = 0;

  RunResult result;
  for (std::uint64_t trip = 0; trip < trips; ++trip) {
    for (const auto& instr : program) {
      exec_instr(instr, trip, result);
      ++result.instructions;
    }
  }
  result.cycles = std::max(pipe_free_, last_drain_);
  for (unsigned r = 0; r < kNumVregs; ++r)
    result.cycles = std::max(result.cycles, reg_ready_[r]);
  result.max_bank_load = banks_.max_load();
  return result;
}

std::uint64_t Core::exec_instr(const Instr& instr, std::uint64_t trip,
                               RunResult& result) {
  const std::uint64_t base =
      instr.imm + instr.chunk_scale * trip * kVlen;

  // Scoreboard: wait for the pipe and for source registers.
  std::uint64_t start = pipe_free_;
  auto needs = [&](std::uint8_t r) {
    start = std::max(start, reg_ready_[r]);
  };

  auto& vd = vregs_[instr.dst % kNumVregs];
  const auto& va = vregs_[instr.a % kNumVregs];
  const auto& vb = vregs_[instr.b % kNumVregs];

  switch (instr.op) {
    case Opcode::kVIota:
    case Opcode::kVBcast: {
      for (std::uint64_t e = 0; e < kVlen; ++e)
        vd[e] = instr.op == Opcode::kVIota ? e + base : base;
      pipe_free_ = start + kVlen;
      reg_ready_[instr.dst % kNumVregs] = pipe_free_;
      result.alu_elements += kVlen;
      break;
    }
    case Opcode::kVAdd:
    case Opcode::kVSub:
    case Opcode::kVMul:
    case Opcode::kVAnd: {
      needs(instr.a);
      needs(instr.b);
      for (std::uint64_t e = 0; e < kVlen; ++e) {
        switch (instr.op) {
          case Opcode::kVAdd: vd[e] = va[e] + vb[e]; break;
          case Opcode::kVSub: vd[e] = va[e] - vb[e]; break;
          case Opcode::kVMul: vd[e] = va[e] * vb[e]; break;
          default: vd[e] = va[e] & vb[e]; break;
        }
      }
      pipe_free_ = start + kVlen;
      reg_ready_[instr.dst % kNumVregs] = pipe_free_;
      result.alu_elements += kVlen;
      break;
    }
    case Opcode::kVAddS:
    case Opcode::kVMulS:
    case Opcode::kVShrS: {
      needs(instr.a);
      for (std::uint64_t e = 0; e < kVlen; ++e) {
        switch (instr.op) {
          case Opcode::kVAddS: vd[e] = va[e] + base; break;
          case Opcode::kVMulS: vd[e] = va[e] * base; break;
          default: vd[e] = va[e] >> base; break;
        }
      }
      pipe_free_ = start + kVlen;
      reg_ready_[instr.dst % kNumVregs] = pipe_free_;
      result.alu_elements += kVlen;
      break;
    }
    case Opcode::kVSum: {
      needs(instr.a);
      std::uint64_t acc = 0;
      for (std::uint64_t e = 0; e < kVlen; ++e) acc += va[e];
      vd.assign(kVlen, 0);
      vd[0] = acc;
      pipe_free_ = start + kVlen;  // one pass through the pipe
      reg_ready_[instr.dst % kNumVregs] = pipe_free_;
      result.alu_elements += kVlen;
      break;
    }
    case Opcode::kVLoad:
    case Opcode::kVLoadIdx: {
      if (instr.op == Opcode::kVLoadIdx) needs(instr.a);
      std::uint64_t ready = start;
      for (std::uint64_t e = 0; e < kVlen; ++e) {
        const std::uint64_t addr = instr.op == Opcode::kVLoad
                                       ? base + e * instr.stride
                                       : va[e];
        if (addr >= memory_.size())
          throw std::out_of_range("vpu: load address out of range");
        vd[e] = memory_[addr];
        const std::uint64_t depart = start + e * config_.gap;
        const std::uint64_t arrival = depart + config_.latency;
        const std::uint64_t served =
            banks_.serve_addr(mapping_.bank_of(addr), arrival, addr);
        ready = std::max(ready, served + config_.latency);
      }
      pipe_free_ = start + kVlen * config_.gap;
      reg_ready_[instr.dst % kNumVregs] = ready;
      result.mem_elements += kVlen;
      break;
    }
    case Opcode::kVStore:
    case Opcode::kVStoreIdx: {
      if (instr.op == Opcode::kVStoreIdx) {
        needs(instr.a);
        needs(instr.b);
      } else {
        needs(instr.a);
      }
      for (std::uint64_t e = 0; e < kVlen; ++e) {
        const std::uint64_t addr = instr.op == Opcode::kVStore
                                       ? base + e * instr.stride
                                       : va[e];
        const std::uint64_t value =
            instr.op == Opcode::kVStore ? va[e] : vb[e];
        if (addr >= memory_.size())
          throw std::out_of_range("vpu: store address out of range");
        memory_[addr] = value;
        const std::uint64_t depart = start + e * config_.gap;
        const std::uint64_t arrival = depart + config_.latency;
        const std::uint64_t served =
            banks_.serve_addr(mapping_.bank_of(addr), arrival, addr);
        last_drain_ = std::max(last_drain_, served + config_.latency);
      }
      pipe_free_ = start + kVlen * config_.gap;
      result.mem_elements += kVlen;
      break;
    }
  }
  return pipe_free_;
}

Program program_vadd(std::uint64_t a_base, std::uint64_t b_base,
                     std::uint64_t out_base) {
  return {
      Instr{Opcode::kVLoad, 0, 0, 0, a_base, 1, 1},
      Instr{Opcode::kVLoad, 1, 0, 0, b_base, 1, 1},
      Instr{Opcode::kVAdd, 2, 0, 1, 0, 1, 0},
      Instr{Opcode::kVStore, 0, 2, 0, out_base, 1, 1},
  };
}

Program program_scatter(std::uint64_t idx_base, std::uint64_t val_base,
                        std::uint64_t out_base) {
  return {
      Instr{Opcode::kVLoad, 0, 0, 0, idx_base, 1, 1},  // v0 = idx[i]
      Instr{Opcode::kVAddS, 0, 0, 0, out_base, 1, 0},  // v0 += out_base
      Instr{Opcode::kVLoad, 1, 0, 0, val_base, 1, 1},  // v1 = val[i]
      Instr{Opcode::kVStoreIdx, 0, 0, 1, 0, 1, 0},     // M[v0] = v1
  };
}

Program program_gather(std::uint64_t idx_base, std::uint64_t src_base,
                       std::uint64_t out_base) {
  return {
      Instr{Opcode::kVLoad, 0, 0, 0, idx_base, 1, 1},  // v0 = idx[i]
      Instr{Opcode::kVAddS, 0, 0, 0, src_base, 1, 0},  // v0 += src_base
      Instr{Opcode::kVLoadIdx, 1, 0, 0, 0, 1, 0},      // v1 = M[v0]
      Instr{Opcode::kVStore, 0, 1, 0, out_base, 1, 1}, // out[i] = v1
  };
}

Program program_strided_read(std::uint64_t base, std::uint64_t stride) {
  return {
      Instr{Opcode::kVLoad, 0, 0, 0, base, stride, stride},
      Instr{Opcode::kVSum, 1, 0, 0, 0, 1, 0},  // consume (forces readiness)
  };
}

Program program_scatter_pipelined(std::uint64_t idx_base,
                                  std::uint64_t val_base,
                                  std::uint64_t out_base) {
  // Trip t covers elements [2*kVlen*t, 2*kVlen*(t+1)); chunk_scale = 2
  // advances the stream bases by 2*kVlen per trip, and the second half's
  // bases start kVlen further in. All loads issue before any dependent
  // op, so by the time the first vadds needs v0 the pipe has already
  // covered ~3 vector issues of latency.
  return {
      Instr{Opcode::kVLoad, 0, 0, 0, idx_base, 1, 2},          // idx, half A
      Instr{Opcode::kVLoad, 1, 0, 0, val_base, 1, 2},          // val, half A
      Instr{Opcode::kVLoad, 2, 0, 0, idx_base + kVlen, 1, 2},  // idx, half B
      Instr{Opcode::kVLoad, 3, 0, 0, val_base + kVlen, 1, 2},  // val, half B
      Instr{Opcode::kVAddS, 0, 0, 0, out_base, 1, 0},
      Instr{Opcode::kVStoreIdx, 0, 0, 1, 0, 1, 0},
      Instr{Opcode::kVAddS, 2, 2, 0, out_base, 1, 0},
      Instr{Opcode::kVStoreIdx, 0, 2, 3, 0, 1, 0},
  };
}

}  // namespace dxbsp::vpu
