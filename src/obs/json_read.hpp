#pragma once
// Minimal recursive-descent JSON reader, the inverse of obs/json.hpp.
//
// Scope: just enough to load what this repo's own JsonWriter emits —
// run reports and svc wire payloads. It is a
// full parser for standard JSON values, but deliberately small: no
// streaming, no SAX, no comments/trailing-comma extensions.
//
// Number policy mirrors the writer: numbers keep their raw source text
// and convert on demand (as_u64 / as_double), so a u64 counter that
// does not fit a double survives a round-trip un-rounded.
//
// Errors are reported as Expected<JsonValue> with a byte offset in the
// message; the parser never throws on malformed input. JsonDecoder then
// reads typed members out of a parsed object, again without throwing.

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

/// First-error decoder over one JSON object another process wrote (svc
/// payloads and the report sections they embed). Accessors read required
/// members and keep the first error, Error{kCorruptInput} naming the
/// member's path, instead of throwing: a half-dead worker writing garbage
/// must read as a strike, not a coordinator crash. Nested objects decode
/// through the `read_json(JsonDecoder&, T&)` declared next to T, beside
/// its `write_json(JsonWriter&, const T&)`.
class JsonDecoder {
 public:
  JsonDecoder(const JsonValue& v, std::string origin);

  [[nodiscard]] std::uint64_t u64(std::string_view key);
  [[nodiscard]] double dbl(std::string_view key);
  [[nodiscard]] std::string str(std::string_view key);
  [[nodiscard]] bool boolean(std::string_view key);
  [[nodiscard]] const JsonValue* array(std::string_view key);
  [[nodiscard]] const JsonValue* object(std::string_view key);
  /// Array of numbers; an item that is not a number is an error.
  [[nodiscard]] std::vector<std::uint64_t> u64_array(std::string_view key);
  /// Optional member: nullptr (without error) when absent or null.
  [[nodiscard]] const JsonValue* opt(std::string_view key) const;
  /// Fails unless "schema_version" holds `want`.
  void expect_version(std::uint64_t want);

  /// Decodes the object member `key` into `out`.
  template <typename T>
  void read(std::string_view key, T& out) {
    if (const JsonValue* m = object(key)) read_at(*m, key, out);
  }
  /// As read(), but an absent or null member is no error: returns false.
  template <typename T>
  bool read_opt(std::string_view key, T& out) {
    const JsonValue* m = opt(key);
    if (m != nullptr) read_at(*m, key, out);
    return m != nullptr;
  }
  /// Decodes `v`, an item or member value of this object named `sub`.
  template <typename T>
  void read_at(const JsonValue& v, std::string_view sub, T& out) {
    JsonDecoder inner(v, origin_ + "." + std::string(sub));
    read_json(inner, out);
    if (!inner.ok() && ok()) message_ = inner.message_;
  }

  /// The decoded object itself (for name-keyed members).
  [[nodiscard]] const JsonValue& value() const noexcept { return v_; }
  [[nodiscard]] bool ok() const noexcept { return message_.empty(); }
  [[nodiscard]] Error error() const;
  /// Records `what` as the error unless one is already recorded.
  void fail(const std::string& what);

 private:
  const JsonValue* req(std::string_view key);
  /// req(), plus: a member of another kind is an error and reads null.
  const JsonValue* member(std::string_view key, JsonValue::Kind kind,
                          const char* what);

  const JsonValue& v_;
  std::string origin_;
  std::string message_;  ///< "origin: what" of the first error
};

}  // namespace dxbsp::obs
