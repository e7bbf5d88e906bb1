#pragma once
// Error taxonomy for the library: one exception type carrying a machine-
// readable code, so callers (benches, machine_explorer, tests, resume
// logic) can distinguish "your flag is malformed" from "this snapshot is
// corrupt" from "the run was interrupted" without parsing message text.
//
// The codes double as process exit codes for the experiment binaries
// (exit_code(), loosely following BSD sysexits), which is what lets
// scripts/ci.sh tell an interrupted sweep (resumable, exit 75) from a
// genuine failure.
//
// Expected<T> is a minimal value-or-Error carrier for load/parse paths
// where a failure is an expected outcome (e.g. probing a checkpoint
// file) rather than a programming error; .value() rethrows the stored
// error for callers that do want the exception.

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace dxbsp {

/// What kind of failure an Error describes.
enum class ErrorCode {
  kConfig,           ///< invalid configuration or arguments (caller bug)
  kParse,            ///< malformed user input: flags, spec strings, text files
  kCorruptInput,     ///< binary input failed validation (traces, matrices)
  kCorruptSnapshot,  ///< checkpoint/snapshot failed validation
  kIo,               ///< filesystem-level failure (open/write/rename)
  kInterrupted,      ///< stopped by signal, deadline, or stall window
  kDegraded,         ///< simulated operation could not fully complete
  kInternal,         ///< internal invariant violated (library bug)
};

/// Stable lower-case name of a code ("config", "corrupt-snapshot", ...).
[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// Suggested process exit code (sysexits-flavoured): config/parse 64,
/// corrupt input/snapshot 65, io 74, interrupted 75, degraded 69,
/// internal 70.
[[nodiscard]] int exit_code(ErrorCode code) noexcept;

/// The library's exception type. Derives from std::runtime_error so
/// pre-taxonomy catch sites keep working; what() is
/// "<code-name>: <context>".
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& context)
      : std::runtime_error(std::string(error_code_name(code)) + ": " +
                           context),
        code_(code) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Throw helper; keeps call sites one line.
[[noreturn]] inline void raise(ErrorCode code, const std::string& context) {
  throw Error(code, context);
}

/// Value-or-Error result for load/parse paths.
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-*)
  Expected(Error error) : error_(std::move(error)) {}  // NOLINT

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// The value; throws the stored Error when !ok().
  [[nodiscard]] const T& value() const& {
    if (!ok()) throw *error_;
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw *error_;
    return std::move(*value_);
  }

  /// The error; must not be called when ok().
  [[nodiscard]] const Error& error() const {
    if (ok()) throw Error(ErrorCode::kInternal, "Expected: no error stored");
    return *error_;
  }

 private:
  std::optional<T> value_;
  std::optional<Error> error_;
};

}  // namespace dxbsp
