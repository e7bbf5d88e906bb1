#include "fault/fault_plan.hpp"

#include "resilience/error.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "util/rng.hpp"

namespace dxbsp::fault {

namespace {

// Substream tags for the independent random decisions of a plan.
constexpr std::uint64_t kSlowStream = 0xfa01;
constexpr std::uint64_t kDeadStream = 0xfa02;
constexpr std::uint64_t kDropStream = 0xfa03;
constexpr std::uint64_t kJitterStream = 0xfa04;
constexpr std::uint64_t kSpreadStream = 0xfa05;

// Draws `count` distinct banks from [0, num_banks) by partial
// Fisher-Yates over the identity permutation.
std::vector<std::uint64_t> draw_banks(std::uint64_t count,
                                      std::uint64_t num_banks,
                                      std::uint64_t seed) {
  std::vector<std::uint64_t> ids(num_banks);
  std::iota(ids.begin(), ids.end(), 0);
  util::Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < count && i + 1 < num_banks; ++i) {
    std::swap(ids[i], ids[i + rng.below(num_banks - i)]);
  }
  ids.resize(count);
  return ids;
}

std::uint64_t fraction_count(double fraction, std::uint64_t num_banks) {
  const auto count = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(num_banks)));
  return std::min(count, num_banks);
}

// Uniform double in [0, 1) from a 64-bit hash.
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace


void FaultConfig::validate() const {
  if (slow_fraction < 0.0 || slow_fraction > 1.0)
    raise(ErrorCode::kConfig, "FaultConfig: slow_fraction must be in [0,1]");
  if (dead_fraction < 0.0 || dead_fraction > 1.0)
    raise(ErrorCode::kConfig, "FaultConfig: dead_fraction must be in [0,1]");
  if (drop_rate < 0.0 || drop_rate > 1.0)
    raise(ErrorCode::kConfig, "FaultConfig: drop_rate must be in [0,1]");
  if (slow_multiplier == 0)
    raise(ErrorCode::kConfig, "FaultConfig: slow_multiplier must be >= 1");
  if (slow_duration == 0)
    raise(ErrorCode::kConfig, "FaultConfig: slow_duration must be >= 1");
  if (retry.backoff_base == 0)
    raise(ErrorCode::kConfig, "FaultConfig: backoff_base must be >= 1");
  if (retry.backoff_cap < retry.backoff_base)
    raise(ErrorCode::kConfig,
        "FaultConfig: backoff_cap must be >= backoff_base");
  if (disk == DiskFault::kSlow && (disk_param == 0 || disk_param > 10000))
    raise(ErrorCode::kConfig,
          "FaultConfig: disk=slow:N needs N in [1, 10000] milliseconds");
  if (disk == DiskFault::kEnospc && disk_param == 0)
    raise(ErrorCode::kConfig,
          "FaultConfig: disk=enospc:K needs K >= 1 (fail from the K-th chunk)");
}

FaultConfig FaultConfig::parse(const std::string& spec) {
  FaultConfig cfg;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) {
      const std::string tok = spec.substr(start, end - start);
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos)
        raise(ErrorCode::kParse,
            "FaultConfig::parse: expected key=value, got '" + tok + "'");
      const std::string key = tok.substr(0, eq);
      const std::string value = tok.substr(eq + 1);
      auto as_int = [&]() -> std::uint64_t {
        try {
          return static_cast<std::uint64_t>(std::stoull(value));
        } catch (const std::exception&) {
          raise(ErrorCode::kParse, "FaultConfig::parse: bad value for '" +
                                      key + "': '" + value + "'");
        }
      };
      auto as_double = [&]() -> double {
        try {
          return std::stod(value);
        } catch (const std::exception&) {
          raise(ErrorCode::kParse, "FaultConfig::parse: bad value for '" +
                                      key + "': '" + value + "'");
        }
      };
      if (key == "seed") {
        cfg.seed = as_int();
      } else if (key == "slow") {
        cfg.slow_fraction = as_double();
      } else if (key == "slow-mult") {
        cfg.slow_multiplier = as_int();
      } else if (key == "slow-onset") {
        cfg.slow_onset = as_int();
      } else if (key == "slow-dur") {
        cfg.slow_duration = as_int();
      } else if (key == "dead") {
        cfg.dead_fraction = as_double();
      } else if (key == "dead-onset") {
        cfg.dead_onset = as_int();
      } else if (key == "drop") {
        cfg.drop_rate = as_double();
      } else if (key == "retries") {
        cfg.retry.max_retries = as_int();
      } else if (key == "backoff") {
        cfg.retry.backoff_base = as_int();
      } else if (key == "backoff-cap") {
        cfg.retry.backoff_cap = as_int();
      } else if (key == "jitter") {
        cfg.retry.jitter = as_int();
      } else if (key == "disk") {
        // disk=slow:N | short_write | enospc:K | corrupt
        const std::size_t colon = value.find(':');
        const std::string mode = value.substr(0, colon);
        const std::string param =
            colon == std::string::npos ? "" : value.substr(colon + 1);
        auto param_int = [&]() -> std::uint64_t {
          try {
            std::size_t used = 0;
            const std::uint64_t v = std::stoull(param, &used);
            if (used != param.size()) throw std::invalid_argument(param);
            return v;
          } catch (const std::exception&) {
            raise(ErrorCode::kParse,
                  "FaultConfig::parse: bad disk parameter '" + param +
                      "' in 'disk=" + value + "'");
          }
        };
        if (mode == "slow") {
          cfg.disk = DiskFault::kSlow;
          cfg.disk_param = param_int();
        } else if (mode == "short_write" && param.empty()) {
          cfg.disk = DiskFault::kShortWrite;
        } else if (mode == "enospc") {
          cfg.disk = DiskFault::kEnospc;
          cfg.disk_param = param_int();
        } else if (mode == "corrupt" && param.empty()) {
          cfg.disk = DiskFault::kCorrupt;
        } else {
          raise(ErrorCode::kParse,
                "FaultConfig::parse: unknown disk fault '" + value +
                    "' (want slow:N, short_write, enospc:K or corrupt)");
        }
      } else {
        raise(ErrorCode::kParse, "FaultConfig::parse: unknown key '" + key +
                                    "'");
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  cfg.validate();
  return cfg;
}

FaultPlan::FaultPlan(const FaultConfig& cfg, std::uint64_t num_banks)
    : num_banks_(num_banks),
      seed_(cfg.seed),
      drop_rate_(cfg.drop_rate),
      retry_(cfg.retry),
      disk_(cfg.disk),
      disk_param_(cfg.disk_param) {
  cfg.validate();
  if (num_banks == 0)
    raise(ErrorCode::kConfig, "FaultPlan: need at least one bank");
  for (const std::uint64_t b :
       draw_banks(fraction_count(cfg.slow_fraction, num_banks), num_banks,
                  util::substream(cfg.seed, kSlowStream))) {
    slow_.push_back(SlowWindow{b, cfg.slow_onset, cfg.slow_duration,
                               cfg.slow_multiplier});
  }
  for (const std::uint64_t b :
       draw_banks(fraction_count(cfg.dead_fraction, num_banks), num_banks,
                  util::substream(cfg.seed, kDeadStream))) {
    deaths_.push_back(BankDeath{b, cfg.dead_onset});
  }
  index_faults();
}

FaultPlan::FaultPlan(std::uint64_t num_banks, std::vector<SlowWindow> slow,
                     std::vector<BankDeath> deaths, double drop_rate,
                     RetryPolicy retry, std::uint64_t seed)
    : num_banks_(num_banks),
      seed_(seed),
      drop_rate_(drop_rate),
      retry_(retry),
      slow_(std::move(slow)),
      deaths_(std::move(deaths)) {
  if (num_banks == 0)
    raise(ErrorCode::kConfig, "FaultPlan: need at least one bank");
  for (const auto& w : slow_) {
    if (w.bank >= num_banks_)
      raise(ErrorCode::kConfig, "FaultPlan: slow window bank out of range");
    if (w.multiplier == 0 || w.duration == 0)
      raise(ErrorCode::kConfig,
          "FaultPlan: slow multiplier and duration must be >= 1");
  }
  for (const auto& d : deaths_) {
    if (d.bank >= num_banks_)
      raise(ErrorCode::kConfig, "FaultPlan: death bank out of range");
  }
  if (drop_rate_ < 0.0 || drop_rate_ > 1.0)
    raise(ErrorCode::kConfig, "FaultPlan: drop_rate must be in [0,1]");
  index_faults();
}

void FaultPlan::index_faults() {
  std::sort(slow_.begin(), slow_.end(),
            [](const SlowWindow& a, const SlowWindow& b) {
              return a.bank != b.bank ? a.bank < b.bank : a.onset < b.onset;
            });
  std::sort(deaths_.begin(), deaths_.end(),
            [](const BankDeath& a, const BankDeath& b) {
              return a.bank != b.bank ? a.bank < b.bank : a.onset < b.onset;
            });
  // Multiple deaths of one bank collapse to the earliest.
  deaths_.erase(std::unique(deaths_.begin(), deaths_.end(),
                            [](const BankDeath& a, const BankDeath& b) {
                              return a.bank == b.bank;
                            }),
                deaths_.end());

  slow_begin_.assign(num_banks_ + 1, 0);
  for (const auto& w : slow_) ++slow_begin_[w.bank + 1];
  for (std::uint64_t b = 0; b < num_banks_; ++b)
    slow_begin_[b + 1] += slow_begin_[b];

  death_onset_.assign(num_banks_, kForever);
  for (const auto& d : deaths_) death_onset_[d.bank] = d.onset;

  drop_seed_ = util::substream(seed_, kDropStream);
  jitter_seed_ = util::substream(seed_, kJitterStream);
  spread_seed_ = util::substream(seed_, kSpreadStream);
}

std::uint64_t FaultPlan::busy_multiplier(std::uint64_t bank,
                                         std::uint64_t time) const {
  std::uint64_t mult = 1;
  for (std::uint32_t i = slow_begin_[bank]; i < slow_begin_[bank + 1]; ++i) {
    const SlowWindow& w = slow_[i];
    if (time >= w.onset && time - w.onset < w.duration)
      mult = std::max(mult, w.multiplier);
  }
  return mult;
}

bool FaultPlan::dead_at(std::uint64_t bank, std::uint64_t time) const {
  return time >= death_onset_[bank];
}

std::uint64_t FaultPlan::alive_at(std::uint64_t time) const {
  std::uint64_t dead = 0;
  for (const auto& d : deaths_)
    if (time >= d.onset) ++dead;
  return num_banks_ - dead;
}

std::uint64_t FaultPlan::failover(std::uint64_t bank, std::uint64_t key,
                                  std::uint64_t time) const {
  if (!dead_at(bank, time)) return bank;
  const std::uint64_t alive = alive_at(time);
  if (alive == 0) return kNoBank;
  // Deterministic hash-spread over the surviving banks: rank r among the
  // alive banks, converted to a bank id by skipping dead ids in order.
  std::uint64_t target =
      util::mix64(spread_seed_ ^ util::mix64(key)) % alive;
  for (const auto& d : deaths_) {
    if (time >= d.onset && d.bank <= target) ++target;
  }
  return target;
}

bool FaultPlan::drop(std::uint64_t request, std::uint64_t attempt) const {
  if (drop_rate_ <= 0.0) return false;
  if (drop_rate_ >= 1.0) return true;
  const std::uint64_t h =
      util::mix64(drop_seed_ ^ util::mix64(request * 0x100001b3ULL + attempt));
  return to_unit(h) < drop_rate_;
}

std::uint64_t FaultPlan::backoff_delay(std::uint64_t request,
                                       std::uint64_t attempt) const {
  const std::uint64_t shift = std::min<std::uint64_t>(attempt - 1, 32);
  std::uint64_t delay = retry_.backoff_base << shift;
  delay = std::min(delay, retry_.backoff_cap);
  if (retry_.jitter > 0) {
    const std::uint64_t h = util::mix64(
        jitter_seed_ ^ util::mix64(request * 0x01000193ULL + attempt));
    delay += h % (retry_.jitter + 1);
  }
  return delay;
}

double FaultPlan::dead_fraction() const noexcept {
  return static_cast<double>(deaths_.size()) /
         static_cast<double>(num_banks_);
}

double FaultPlan::slow_fraction() const noexcept {
  std::uint64_t banks = 0;
  for (std::uint64_t b = 0; b < num_banks_; ++b)
    if (slow_begin_[b + 1] > slow_begin_[b]) ++banks;
  return static_cast<double>(banks) / static_cast<double>(num_banks_);
}

double FaultPlan::max_stall_fraction() const noexcept {
  std::uint64_t mult = 1;
  for (const auto& w : slow_) mult = std::max(mult, w.multiplier);
  return 1.0 - 1.0 / static_cast<double>(mult);
}

std::uint64_t FaultPlan::fingerprint() const noexcept {
  // FNV-1a over every structural field, each word mixed so adjacent
  // fields cannot cancel. The indexes (slow_begin_, death_onset_) are
  // derived from slow_/deaths_, so hashing the source lists suffices.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto word = [&h](std::uint64_t v) {
    h ^= util::mix64(v);
    h *= 0x100000001B3ULL;
  };
  word(num_banks_);
  word(seed_);
  word(std::bit_cast<std::uint64_t>(drop_rate_));
  word(retry_.max_retries);
  word(retry_.backoff_base);
  word(retry_.backoff_cap);
  word(retry_.jitter);
  word(static_cast<std::uint64_t>(disk_));
  word(disk_param_);
  for (const auto& w : slow_) {
    word(w.bank);
    word(w.onset);
    word(w.duration);
    word(w.multiplier);
  }
  for (const auto& d : deaths_) {
    word(d.bank);
    word(d.onset);
  }
  return h;
}

}  // namespace dxbsp::fault
