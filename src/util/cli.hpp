#pragma once
// Minimal command-line flag parsing shared by bench and example binaries.
//
// Supports --name=value, --name value, and boolean --name. A tool whose
// whole command line is flags calls reject_unread() after its reads, so
// a mistyped flag fails loudly instead of leaving its default in place.
// "--name value" is ambiguous for a boolean flag: reject_unread() also
// refuses the token after a flag read only through has() unless it
// reads as a boolean (true/false/1/0), since it was a stray argument.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::util {

/// Parsed command-line flags. Every lookup records the name it asked for
/// (for reject_unread), so one Cli is read from one thread.
class Cli {
 public:
  /// Parses argv; throws Error{kParse} on malformed input.
  Cli(int argc, const char* const* argv);

  /// Returns the string value of --name, or `def` if absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def) const;

  /// Returns the integer value of --name, or `def` if absent. Strict:
  /// trailing garbage ("8x") and overflow raise Error{kParse} naming the
  /// flag.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const;

  /// Like get_int but for flags that are semantically non-negative
  /// (sizes, counts, seeds): additionally rejects negative values.
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t def) const;

  /// Returns the floating-point value of --name, or `def` if absent.
  /// Strict: trailing garbage and overflow raise Error{kParse}.
  [[nodiscard]] double get_double(const std::string& name, double def) const;

  /// True iff --name was given (as a bare flag or with any value other
  /// than "false"/"0").
  [[nodiscard]] bool has(const std::string& name) const;

  /// Raises Error{kParse} naming the first flag that no get*/has call
  /// has read, then an argument that a boolean flag (read only by has())
  /// swallowed as "--name value" and that is not true/false/1/0, then
  /// the first positional argument (this tool takes none).
  void reject_unread() const;

  /// Every parsed flag, sorted by name (std::map order) — the run-report
  /// writer iterates this for a deterministic flag section.
  [[nodiscard]] const std::map<std::string, std::string>& flags() const {
    return flags_;
  }

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Name of the binary (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::set<std::string> spaced_;          // names given as "--name value"
  mutable std::set<std::string> read_;    // names looked up by get*/has
  mutable std::set<std::string> valued_;  // names looked up by get*

  /// The value of --name, or nullptr if absent; records the lookup (as a
  /// value read unless `boolean`).
  [[nodiscard]] const std::string* find(const std::string& name,
                                        bool boolean = false) const;
};

}  // namespace dxbsp::util
