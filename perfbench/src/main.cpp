// perfbench_driver: one benchmark run of one workload (perfbench/README.md).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--tmp-dir DIR] [--expect-digest HEX]
//                    [--expect-model-err HEX] [--tiny] [--baseline]
//
// Prints progress and metric tables, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. The same
// result, with sample counts and the host fingerprint, is stored under
// --out-dir. --baseline prints only the default-seed output digest and
// model_rel_err bit pattern, and refuses to run in a sanitizer build.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "fingerprint.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kUsage = 2;
constexpr int kRefused = 3;

std::uint64_t parse_uint(const std::string& flag, const std::string& v,
                         int base = 10) {
  std::size_t pos = 0;
  const unsigned long long x = std::stoull(v, &pos, base);
  if (pos != v.size() || v.empty() || v[0] == '-')
    throw std::invalid_argument("--" + flag + ": not a whole number: " + v);
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool baseline = false;
  try {
    const std::map<std::string, bool> takes_value = {
        {"workload", true},      {"seed", true},    {"seconds", true},
        {"trace", true},         {"out-dir", true}, {"tmp-dir", true},
        {"expect-digest", true}, {"expect-model-err", true},
        {"tiny", false},         {"baseline", false}};
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw std::invalid_argument("unexpected argument " + arg);
      arg = arg.substr(2);
      std::string value;
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      }
      const auto it = takes_value.find(arg);
      if (it == takes_value.end())
        throw std::invalid_argument("unknown flag --" + arg);
      if (it->second && eq == std::string::npos) {
        if (i + 1 >= argc)
          throw std::invalid_argument("--" + arg + " needs a value");
        value = argv[++i];
      }
      if (arg == "workload") cfg.workload = value;
      else if (arg == "seed") cfg.seed = parse_uint(arg, value);
      else if (arg == "seconds") cfg.seconds = std::stod(value);
      else if (arg == "trace") cfg.trace = parse_uint(arg, value) != 0;
      else if (arg == "out-dir") cfg.out_dir = value;
      else if (arg == "tmp-dir") cfg.tmp_base = value;
      else if (arg == "expect-digest")
        cfg.expect_digest = parse_uint(arg, value, 16);
      else if (arg == "expect-model-err")
        cfg.expect_model_err = parse_uint(arg, value, 16);
      else if (arg == "tiny") cfg.tiny = true;
      else if (arg == "baseline") baseline = true;
    }
    bool known = false;
    for (const auto& name : workload_names()) known |= name == cfg.workload;
    if (!known) throw std::invalid_argument("--workload: unknown '" + cfg.workload + "'");
    if (!(cfg.seconds > 0.0))
      throw std::invalid_argument("--seconds must be positive");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return kUsage;
  }

  try {
    if (baseline) {
      if (sanitized_build()) {
        std::cerr << "perfbench: refusing to write a baseline from a "
                     "sanitizer build\n";
        return kRefused;
      }
      const Baseline b = baseline_outputs(cfg);
      std::cout << "digest " << cfg.workload << std::hex << std::setfill('0')
                << " " << std::setw(16) << b.digest << " " << std::setw(16)
                << b.model_err_bits << std::dec << "\n";
      return 0;
    }
    std::cout << "workload " << cfg.workload << " seed " << cfg.seed
              << (cfg.trace ? " traced" : " untraced") << "\nfingerprint "
              << to_json(host_fingerprint()) << "\n";
    const RunResult r = run_benchmark(cfg, std::cout);
    std::cout << "\n";
    print_metrics(r, std::cout);
    std::cout << "failed_frac "
              << (r.attempted > 0 ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 0.0)
              << " (" << r.failed << " of " << r.attempted << " ops)\n";

    std::filesystem::create_directories(cfg.out_dir);
    const std::string path = result_path(cfg, cfg.trace);
    std::ofstream(path) << result_file_json(cfg, r);
    std::cout << "result stored in " << path << "\n"
              << result_line(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
