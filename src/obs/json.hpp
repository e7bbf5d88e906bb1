#pragma once
// Minimal streaming JSON emitter for the observability outputs (Chrome
// traces, metrics dumps, run reports).
//
// Escaping: '"', '\\' and all control characters below 0x20 are escaped
// (short forms \n \t \r \b \f where they exist, \u00XX otherwise).
// Bytes >= 0x80 pass through untouched: our strings are UTF-8 and JSON
// permits raw UTF-8 in string literals.
//
// Number policy: finite doubles are printed with max_digits10 precision
// so they round-trip; NaN and ±Inf have no JSON representation and are
// emitted as null. A report must stay loadable by every parser —
// consumers treat null as "value undefined", which is exactly what a
// NaN metric means.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dxbsp::obs {

/// Returns `s` with JSON string escaping applied (no surrounding quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Formats a double per the NaN/Inf policy above ("null" when not finite).
[[nodiscard]] std::string json_number(double v);

/// Streaming writer with automatic comma/indent bookkeeping. Layout is
/// deterministic (2-space indent, '\n' line ends), so two writes of the
/// same logical document are byte-identical — the property the CI
/// thread-count diff relies on.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next member (object context only).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }

  /// Emits a JSON null ("value undefined", same meaning as NaN metrics).
  JsonWriter& null_value();

  /// key + value in one call, for the common case.
  template <typename T>
  JsonWriter& member(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  void before_item();
  void newline_indent();

  std::ostream& os_;
  // One frame per open container: true once the first item was written
  // (so the next item needs a leading comma).
  std::vector<bool> frames_;
  bool pending_key_ = false;
};

/// Writes `x` as the object member `key`, through the
/// `write_json(JsonWriter&, const T&)` declared next to T (which emits
/// the object's members).
template <typename T>
JsonWriter& write_object(JsonWriter& w, std::string_view key, const T& x) {
  w.key(key).begin_object();
  write_json(w, x);
  return w.end_object();
}

}  // namespace dxbsp::obs
