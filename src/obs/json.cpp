#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

namespace dxbsp::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;  // includes raw UTF-8 bytes >= 0x80
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonWriter::newline_indent() {
  os_ << '\n';
  for (std::size_t i = 0; i < frames_.size(); ++i) os_ << "  ";
}

void JsonWriter::before_item() {
  if (pending_key_) {
    // The comma/indent was already emitted with the key.
    pending_key_ = false;
    return;
  }
  if (frames_.empty()) return;  // top-level value
  if (frames_.back()) os_ << ',';
  frames_.back() = true;
  newline_indent();
}

JsonWriter& JsonWriter::begin_object() {
  before_item();
  os_ << '{';
  frames_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had_items = frames_.back();
  frames_.pop_back();
  if (had_items) newline_indent();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_item();
  os_ << '[';
  frames_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had_items = frames_.back();
  frames_.pop_back();
  if (had_items) newline_indent();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (frames_.back()) os_ << ',';
  frames_.back() = true;
  newline_indent();
  os_ << '"' << json_escape(k) << "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_item();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_item();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_item();
  os_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_item();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_item();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  before_item();
  os_ << "null";
  return *this;
}

}  // namespace dxbsp::obs
