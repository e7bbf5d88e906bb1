#include "algos/vm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/bits.hpp"

namespace dxbsp::algos {

namespace {
std::shared_ptr<const mem::BankMapping> mapping_or_default(
    const sim::MachineConfig& cfg,
    std::shared_ptr<const mem::BankMapping> mapping) {
  if (mapping) return mapping;
  return std::make_shared<mem::InterleavedMapping>(cfg.banks());
}

/// out[i] = src.data[idx[i]], bounds-checked; returns the gathered
/// addresses for the caller to account.
template <typename T>
std::vector<std::uint64_t> gather_into(std::vector<T>& out,
                                       const VArray<T>& src,
                                       std::span<const std::uint64_t> idx,
                                       const std::string& label) {
  out.resize(idx.size());
  std::vector<std::uint64_t> addrs(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] >= src.size()) throw std::out_of_range("Vm::gather: " + label);
    out[i] = src.data[idx[i]];
    addrs[i] = src.region.addr(idx[i]);
  }
  return addrs;
}
}  // namespace

Vm::Vm(sim::MachineConfig config,
       std::shared_ptr<const mem::BankMapping> mapping, VmOptions options)
    : machine_(config, mapping_or_default(config, std::move(mapping))),
      params_(core::DxBspParams::from_config(config)),
      options_(options) {}

Region Vm::reserve(std::uint64_t n) {
  const Region r{next_addr_, n};
  next_addr_ += std::max<std::uint64_t>(n, 1);
  return r;
}

std::uint64_t Vm::proc_of(std::uint64_t i, std::uint64_t n) const noexcept {
  const auto& cfg = machine_.config();
  if (cfg.distribution == sim::Distribution::kCyclic) return i % cfg.processors;
  const std::uint64_t per = util::ceil_div(n, cfg.processors);
  return i / per;
}

void Vm::account(std::span<const std::uint64_t> addrs,
                 const std::string& label, double streams) {
  if (addrs.empty()) return;
  if (streams < 0.0) streams = kAuxStreams;
  if (trace_hook_) trace_hook_(label, addrs);
  // A simulated op returns its own access profile; only the model-only
  // mode maps and counts the addresses for the prediction.
  sim::BulkResult res;
  core::Prediction pred;
  if (options_.simulate) {
    res = machine_.scatter(addrs);
    pred = core::predict(res, params_);
  } else {
    pred = core::predict_scatter(addrs, params_, &machine_.mapping());
    res.n = addrs.size();
    res.cycles = pred.dxbsp_mapped;  // model-only mode
  }

  // The auxiliary contiguous streams (index read, result write) overlap
  // the irregular access; they bind only if they exceed it.
  const auto aux = static_cast<std::uint64_t>(
      std::ceil(streams *
                static_cast<double>(util::ceil_div(addrs.size(), params_.p)) *
                static_cast<double>(params_.g)));

  core::LedgerEntry e;
  e.label = label;
  e.n = addrs.size();
  e.max_contention = pred.profile.max_contention;
  e.sim_cycles = std::max(res.cycles, aux);
  e.pred_dxbsp = std::max(pred.dxbsp_mapped, aux + 2 * params_.L);
  e.pred_bsp = std::max(pred.bsp, aux + 2 * params_.L);
  ledger_.add(e);
}

void Vm::gather(std::vector<std::uint64_t>& out,
                const VArray<std::uint64_t>& src,
                std::span<const std::uint64_t> idx, const std::string& label) {
  account(gather_into(out, src, idx, label), label, -1.0);
}

void Vm::gather(std::vector<double>& out, const VArray<double>& src,
                std::span<const std::uint64_t> idx, const std::string& label) {
  account(gather_into(out, src, idx, label), label, -1.0);
}

void Vm::scatter(VArray<std::uint64_t>& dest,
                 std::span<const std::uint64_t> idx,
                 std::span<const std::uint64_t> vals, const std::string& label) {
  if (idx.size() != vals.size())
    throw std::invalid_argument("Vm::scatter: size mismatch: " + label);
  std::vector<std::uint64_t> addrs(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] >= dest.size()) throw std::out_of_range("Vm::scatter: " + label);
    dest.data[idx[i]] = vals[i];
    addrs[i] = dest.region.addr(idx[i]);
  }
  account(addrs, label, -1.0);
}

void Vm::scatter_add(VArray<std::uint64_t>& dest,
                     std::span<const std::uint64_t> idx,
                     std::span<const std::uint64_t> vals,
                     const std::string& label) {
  if (idx.size() != vals.size())
    throw std::invalid_argument("Vm::scatter_add: size mismatch: " + label);
  std::vector<std::uint64_t> addrs(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] >= dest.size())
      throw std::out_of_range("Vm::scatter_add: " + label);
    dest.data[idx[i]] += vals[i];
    addrs[i] = dest.region.addr(idx[i]);
  }
  account(addrs, label, -1.0);
}

void Vm::contiguous(const Region& r, std::uint64_t n, double passes,
                    const std::string& label) {
  if (n == 0 || passes <= 0.0) return;
  if (n > r.size) throw std::out_of_range("Vm::contiguous: " + label);
  // A contiguous stream hits banks round-robin; with B >= d it never
  // queues, so the time is the issue time plus wire latency. We charge it
  // analytically instead of simulating n·passes trivial events.
  const auto cyc = static_cast<std::uint64_t>(std::ceil(
      passes * static_cast<double>(util::ceil_div(n, params_.p)) *
          static_cast<double>(params_.g) +
      2.0 * static_cast<double>(params_.L)));
  core::LedgerEntry e;
  e.label = label;
  e.n = static_cast<std::uint64_t>(static_cast<double>(n) * passes);
  e.max_contention = 1;
  e.sim_cycles = cyc;
  e.pred_dxbsp = cyc;
  e.pred_bsp = cyc;
  ledger_.add(e);
}

void Vm::compute(std::uint64_t n, double ops_per_element,
                 const std::string& label) {
  if (n == 0 || ops_per_element <= 0.0) return;
  const std::uint64_t cyc = machine_.compute(n, ops_per_element);
  core::LedgerEntry e;
  e.label = label;
  e.n = n;
  e.max_contention = 0;
  e.sim_cycles = cyc;
  e.pred_dxbsp = cyc;
  e.pred_bsp = cyc;
  ledger_.add(e);
}

void Vm::bulk(std::span<const std::uint64_t> addrs, const std::string& label,
              double streams) {
  account(addrs, label, streams);
}

}  // namespace dxbsp::algos
