#pragma once
// Minimal recursive-descent JSON reader, the inverse of obs/json.hpp.
//
// Scope: just enough to load what this repo's own JsonWriter emits —
// run reports, fleet stitch manifests and svc wire payloads. It is a
// full parser for
// standard JSON values, but deliberately small: no streaming, no SAX,
// no comments/trailing-comma extensions.
//
// Number policy mirrors the writer: numbers keep their raw source text
// and convert on demand (as_u64 / as_double), so a u64 counter that
// does not fit a double survives a round-trip un-rounded.
//
// Errors are reported as Expected<JsonValue> with a byte offset in the
// message; the parser never throws on malformed input.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::obs {

/// One parsed JSON value. Object member order is preserved (reports are
/// written in a deterministic order; tools echo it back the same way).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }

  /// String value (string kind only; empty otherwise).
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }

  /// Bool value (bool kind only; false otherwise).
  [[nodiscard]] bool as_bool() const noexcept { return bool_; }

  /// Raw source text of a number ("17", "0.25", "1e9").
  [[nodiscard]] const std::string& raw_number() const noexcept { return str_; }

  /// Number as double (0.0 if not a number).
  [[nodiscard]] double as_double() const noexcept;

  /// Number as u64; exact for integer literals up to 2^64-1. Falls back
  /// to a double conversion for fractional/exponent forms.
  [[nodiscard]] std::uint64_t as_u64() const noexcept;

  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Parses a complete JSON document (leading/trailing whitespace ok).
  /// `origin` names the source (a path) in error messages.
  [[nodiscard]] static Expected<JsonValue> parse(std::string_view text,
                                                 const std::string& origin);

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string str_;  // string value or raw number text
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace dxbsp::obs
