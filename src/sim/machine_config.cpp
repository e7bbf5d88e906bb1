#include "sim/machine_config.hpp"

#include "resilience/error.hpp"

namespace dxbsp::sim {

void MachineConfig::validate() const {
  if (processors == 0)
    raise(ErrorCode::kConfig, "MachineConfig: processors must be >= 1");
  if (gap == 0) raise(ErrorCode::kConfig, "MachineConfig: gap must be >= 1");
  if (bank_delay == 0)
    raise(ErrorCode::kConfig, "MachineConfig: bank_delay must be >= 1");
  if (expansion == 0)
    raise(ErrorCode::kConfig, "MachineConfig: expansion must be >= 1");
  if (slackness == 0)
    raise(ErrorCode::kConfig, "MachineConfig: slackness must be >= 1");
  if (network_sections > banks())
    raise(ErrorCode::kConfig,
        "MachineConfig: more network sections than banks");
  // Period/port parameters are rejected when zero even if their feature
  // is currently off: a zero value is always a configuration error and
  // would otherwise arm a divide-by-zero for whoever enables the feature.
  if (section_period == 0)
    raise(ErrorCode::kConfig, "MachineConfig: section_period must be >= 1");
  if (link_period == 0)
    raise(ErrorCode::kConfig, "MachineConfig: link_period must be >= 1");
  if (bank_ports == 0)
    raise(ErrorCode::kConfig, "MachineConfig: bank_ports must be >= 1");
  if (butterfly_network && network_sections != 0)
    raise(ErrorCode::kConfig,
        "MachineConfig: butterfly and sectioned networks are exclusive");
  if (bank_cache_lines != 0) {
    if (cache_line_words == 0)
      raise(ErrorCode::kConfig,
          "MachineConfig: cache_line_words must be >= 1");
    if (cached_delay == 0 || cached_delay > bank_delay)
      raise(ErrorCode::kConfig,
          "MachineConfig: cached_delay must be in [1, bank_delay]");
  }
  cache.validate();
}

MachineConfig MachineConfig::cray_c90() {
  MachineConfig c;
  c.name = "cray-c90";
  c.processors = 16;
  c.gap = 1;
  c.latency = 24;       // SRAM-era network round trip, in CPU cycles
  c.bank_delay = 6;     // paper: C90 SRAM bank delay of 6 clocks
  c.expansion = 64;     // 1024 banks / 16 CPUs
  c.slackness = 64 * 1024;
  return c;
}

MachineConfig MachineConfig::cray_j90() {
  MachineConfig c;
  c.name = "cray-j90";
  c.processors = 8;     // dedicated 8-processor system used in the paper
  c.gap = 1;
  c.latency = 30;
  c.bank_delay = 14;    // paper: J90 DRAM bank delay of 14 clocks
  c.expansion = 32;     // 256 banks for the 8-CPU configuration
  c.slackness = 64 * 1024;
  return c;
}

MachineConfig MachineConfig::tera_like() {
  MachineConfig c;
  c.name = "tera-like";
  c.processors = 256;
  c.gap = 1;
  c.latency = 128;      // long network, hidden by multithreading
  c.bank_delay = 8;
  c.expansion = 2;      // 512 DRAM banks / 256 processors
  c.slackness = 1024;   // 128 streams x 8 deep, roughly
  return c;
}

MachineConfig MachineConfig::test_machine() {
  MachineConfig c;
  c.name = "test";
  c.processors = 4;
  c.gap = 1;
  c.latency = 8;
  c.bank_delay = 4;
  c.expansion = 4;
  c.slackness = 64;
  return c;
}

std::vector<MachineConfig> MachineConfig::table1_presets() {
  return {cray_c90(), cray_j90(), tera_like()};
}

MachineConfig MachineConfig::parse(const std::string& spec) {
  MachineConfig cfg;  // defaults; replaced if the first token is a preset
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) tokens.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  std::size_t first_kv = 0;
  if (!tokens.empty() && tokens[0].find('=') == std::string::npos) {
    const std::string& preset = tokens[0];
    if (preset == "j90" || preset == "cray-j90") {
      cfg = cray_j90();
    } else if (preset == "c90" || preset == "cray-c90") {
      cfg = cray_c90();
    } else if (preset == "tera" || preset == "tera-like") {
      cfg = tera_like();
    } else if (preset == "test") {
      cfg = test_machine();
    } else {
      raise(ErrorCode::kParse, "MachineConfig::parse: unknown preset '" +
                                  preset + "'");
    }
    first_kv = 1;
  }

  for (std::size_t i = first_kv; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
      raise(ErrorCode::kParse,
          "MachineConfig::parse: expected key=value, got '" + tok + "'");
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    auto as_int = [&]() -> std::uint64_t {
      try {
        return static_cast<std::uint64_t>(std::stoull(value));
      } catch (const std::exception&) {
        raise(ErrorCode::kParse, "MachineConfig::parse: bad value for '" +
                                    key + "': '" + value + "'");
      }
    };
    if (key == "p") {
      cfg.processors = as_int();
    } else if (key == "g") {
      cfg.gap = as_int();
    } else if (key == "L") {
      cfg.latency = as_int();
    } else if (key == "d") {
      cfg.bank_delay = as_int();
    } else if (key == "x") {
      cfg.expansion = as_int();
    } else if (key == "S") {
      cfg.slackness = as_int();
    } else if (key == "sections") {
      cfg.network_sections = as_int();
    } else if (key == "section-period") {
      cfg.section_period = as_int();
    } else if (key == "ports") {
      cfg.bank_ports = as_int();
    } else if (key == "butterfly") {
      cfg.butterfly_network = (value != "0" && value != "false");
    } else if (key == "link-period") {
      cfg.link_period = as_int();
    } else if (key == "cache-lines") {
      cfg.bank_cache_lines = as_int();
    } else if (key == "line-words") {
      cfg.cache_line_words = as_int();
    } else if (key == "cached-delay") {
      cfg.cached_delay = as_int();
    } else if (key == "cache") {
      cfg.cache.capacity = as_int();
    } else if (key == "cache-line") {
      cfg.cache.line_words = as_int();
    } else if (key == "cache-assoc") {
      cfg.cache.assoc = as_int();
    } else if (key == "cache-latency") {
      cfg.cache.hit_latency = as_int();
    } else if (key == "cache-write") {
      if (value == "through") {
        cfg.cache.write = cache::WritePolicy::kThrough;
      } else if (value == "back") {
        cfg.cache.write = cache::WritePolicy::kBack;
      } else {
        raise(ErrorCode::kParse,
            "MachineConfig::parse: cache-write must be through or back");
      }
    } else if (key == "combine") {
      cfg.combine_requests = (value != "0" && value != "false");
    } else if (key == "dist") {
      if (value == "block") {
        cfg.distribution = Distribution::kBlock;
      } else if (value == "cyclic") {
        cfg.distribution = Distribution::kCyclic;
      } else {
        raise(ErrorCode::kParse,
            "MachineConfig::parse: dist must be block or cyclic");
      }
    } else {
      raise(ErrorCode::kParse, "MachineConfig::parse: unknown key '" +
                                  key + "'");
    }
  }
  cfg.name = spec.empty() ? cfg.name : spec;
  cfg.validate();
  return cfg;
}

}  // namespace dxbsp::sim
