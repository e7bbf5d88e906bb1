// bench_trend: fold BENCH_*.json baselines into one trend table.
//
//   ./bench_trend FILE.json [FILE.json ...]
//
// Each input is either a metrics dump (--metrics: top-level "metrics"
// whose entries carry kind/stability/value) or a versioned run report
// (--report: "metrics" maps names straight to numbers, histograms to
// {total, bounds, counts}). The output is one row per metric name, one
// column per file, so a sequence of committed baselines reads as a
// trajectory — the C++ twin of scripts/bench_history.py, sharing its
// obs::JsonValue reader with the rest of the tooling.
//
// Exit codes follow the library taxonomy: malformed JSON or a file
// without a "metrics" section is a structured error (65/74), not a
// silently empty column — scripts/ci.sh runs this as a lint over the
// committed baselines.
//
// Arguments may be glob patterns (BENCH_*.json), expanded here so the
// tool behaves the same from scripts that quote their globs. A pattern
// matching nothing is reported and skipped; when NO argument matches
// anything the tool prints a clear note and exits 0 — a repo with no
// committed baselines yet has no trend to lint, which is not an error
// (the python twin scripts/bench_history.py degrades identically). A
// literal path (no glob metacharacters) that is missing still fails
// with 74: naming one exact file is a claim that it exists.

#include <glob.h>

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/json_read.hpp"
#include "resilience/error.hpp"
#include "resilience/framed_file.hpp"
#include "util/table.hpp"

namespace {

using dxbsp::obs::JsonValue;

/// name -> raw value text for one file's metrics section.
std::map<std::string, std::string> load_metrics(const std::string& path) {
  const auto bytes = dxbsp::resilience::read_file(path);
  if (!bytes)
    dxbsp::raise(dxbsp::ErrorCode::kIo, "cannot open '" + path + "'");
  const JsonValue doc =
      JsonValue::parse(dxbsp::resilience::text_view(bytes.value()), path)
          .value();
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object())
    dxbsp::raise(dxbsp::ErrorCode::kCorruptInput,
                 path + ": no \"metrics\" object (not a metrics dump "
                        "or run report)");
  std::map<std::string, std::string> out;
  for (const auto& [name, v] : metrics->members()) {
    if (v.is_number()) {
      // Run-report scalar: name -> number.
      out.emplace(name, v.raw_number());
    } else if (v.is_object()) {
      // Metrics-dump entry ("value") or histogram ("total").
      const JsonValue* val = v.find("value");
      if (val == nullptr) val = v.find("total");
      if (val != nullptr && val->is_number())
        out.emplace(name, val->raw_number());
    }
  }
  return out;
}

/// Expands each argument with glob(3). Literal arguments (no metachars)
/// pass through untouched so a missing exact path still errors later.
std::vector<std::string> expand_globs(const std::vector<std::string>& args) {
  std::vector<std::string> out;
  for (const std::string& arg : args) {
    if (arg.find_first_of("*?[") == std::string::npos) {
      out.push_back(arg);
      continue;
    }
    glob_t g{};
    const int rc = ::glob(arg.c_str(), 0, nullptr, &g);
    if (rc == 0) {
      for (std::size_t i = 0; i < g.gl_pathc; ++i)
        out.emplace_back(g.gl_pathv[i]);
    } else if (rc == GLOB_NOMATCH) {
      std::cerr << "bench_trend: no baselines match '" << arg << "'\n";
    } else {
      globfree(&g);
      dxbsp::raise(dxbsp::ErrorCode::kIo,
                   "glob failed for pattern '" + arg + "'");
    }
    globfree(&g);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dxbsp;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: bench_trend FILE.json [FILE.json ...]\n";
    return exit_code(ErrorCode::kConfig);
  }
  try {
    const std::vector<std::string> paths = expand_globs(args);
    if (paths.empty()) {
      std::cout << "bench_trend: no baselines to fold (nothing matched); "
                   "run a bench with --metrics to create one\n";
      return 0;
    }
    std::vector<std::map<std::string, std::string>> columns;
    std::map<std::string, bool> names;  // sorted union of metric names
    for (const std::string& path : paths) {
      columns.push_back(load_metrics(path));
      for (const auto& [name, _] : columns.back()) names[name] = true;
    }
    std::vector<std::string> header{"metric"};
    header.insert(header.end(), paths.begin(), paths.end());
    util::Table t(header);
    for (const auto& [name, _] : names) {
      std::vector<std::string> row{name};
      for (const auto& col : columns) {
        const auto it = col.find(name);
        row.push_back(it == col.end() ? "-" : it->second);
      }
      t.add_row_strings(std::move(row));
    }
    t.print(std::cout);
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  }
}
