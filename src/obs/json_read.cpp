#include "obs/json_read.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

namespace dxbsp::obs {

double JsonValue::as_double() const noexcept {
  if (kind_ != Kind::kNumber) return 0.0;
  return std::strtod(str_.c_str(), nullptr);
}

std::uint64_t JsonValue::as_u64() const noexcept {
  if (kind_ != Kind::kNumber) return 0;
  // Integer literals convert exactly; fractional/exponent forms (or
  // anything strtoull rejects) fall back through double.
  if (str_.find_first_of(".eE") == std::string::npos && !str_.empty() &&
      str_[0] != '-') {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(str_.c_str(), &end, 10);
    if (errno == 0 && end == str_.c_str() + str_.size())
      return static_cast<std::uint64_t>(v);
  }
  const double d = as_double();
  return d <= 0.0 ? 0 : static_cast<std::uint64_t>(d);
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

/// Recursive-descent parser over the raw text. Depth is bounded so a
/// pathological "[[[[..." input fails cleanly instead of overflowing
/// the stack. Named (not anonymous-namespace) so JsonValue can friend it.
class JsonParser {
 public:
  JsonParser(std::string_view text, const std::string& origin)
      : text_(text), origin_(origin) {}

  Expected<JsonValue> run() {
    JsonValue v;
    if (Error* e = parse_value(v, 0)) return *e;
    skip_ws();
    if (pos_ != text_.size())
      return fail("trailing content after the top-level value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Error fail(const std::string& why) {
    err_ = Error(ErrorCode::kParse, origin_ + ": offset " +
                                        std::to_string(pos_) + ": " + why);
    return *err_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // Returns nullptr on success, a pointer to the stored error otherwise.
  Error* parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
      return &*err_;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return &*err_;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (Error* e = parse_string(s)) return e;
        out.kind_ = JsonValue::Kind::kString;
        out.str_ = std::move(s);
        return nullptr;
      }
      case 't':
        if (!literal("true")) break;
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return nullptr;
      case 'f':
        if (!literal("false")) break;
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return nullptr;
      case 'n':
        if (!literal("null")) break;
        out.kind_ = JsonValue::Kind::kNull;
        return nullptr;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
        break;
    }
    fail(std::string("unexpected character '") + c + "'");
    return &*err_;
  }

  Error* parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return nullptr;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected '\"' to start an object key");
        return &*err_;
      }
      std::string key;
      if (Error* e = parse_string(key)) return e;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail("expected ':' after object key");
        return &*err_;
      }
      ++pos_;
      JsonValue member;
      if (Error* e = parse_value(member, depth + 1)) return e;
      out.members_.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated object");
        return &*err_;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return nullptr;
      }
      fail("expected ',' or '}' in object");
      return &*err_;
    }
  }

  Error* parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return nullptr;
    }
    while (true) {
      JsonValue item;
      if (Error* e = parse_value(item, depth + 1)) return e;
      out.items_.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated array");
        return &*err_;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return nullptr;
      }
      fail("expected ',' or ']' in array");
      return &*err_;
    }
  }

  Error* parse_string(std::string& out) {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return nullptr;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return &*err_;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad hex digit in \\u escape");
                return &*err_;
              }
            }
            pos_ += 4;
            // UTF-8 encode the code point. Surrogate pairs are not
            // recombined — the writer never emits \u above 0x1f, so
            // this path only sees escaped control characters in
            // practice; lone surrogates encode as-is.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail(std::string("unknown escape '\\") + esc + "'");
            return &*err_;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return &*err_;
      }
      out += c;
      ++pos_;
    }
    fail("unterminated string");
    return &*err_;
  }

  Error* parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      return pos_ > before;
    };
    if (!digits()) {
      fail("malformed number");
      return &*err_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) {
        fail("malformed number (no digits after '.')");
        return &*err_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) {
        fail("malformed number (no exponent digits)");
        return &*err_;
      }
    }
    out.kind_ = JsonValue::Kind::kNumber;
    out.str_ = std::string(text_.substr(start, pos_ - start));
    return nullptr;
  }

  std::string_view text_;
  const std::string& origin_;
  std::size_t pos_ = 0;
  std::optional<Error> err_;
};

Expected<JsonValue> JsonValue::parse(std::string_view text,
                                     const std::string& origin) {
  return JsonParser(text, origin).run();
}

JsonDecoder::JsonDecoder(const JsonValue& v, std::string origin)
    : v_(v), origin_(std::move(origin)) {
  if (!v_.is_object()) fail("not an object");
}

void JsonDecoder::fail(const std::string& what) {
  if (ok()) message_ = origin_ + ": " + what;
}

Error JsonDecoder::error() const {
  return Error(ErrorCode::kCorruptInput, message_);
}

const JsonValue* JsonDecoder::req(std::string_view key) {
  const JsonValue* m = v_.find(key);
  if (m == nullptr) fail("missing member '" + std::string(key) + "'");
  return m;
}

const JsonValue* JsonDecoder::opt(std::string_view key) const {
  const JsonValue* m = v_.find(key);
  return (m == nullptr || m->is_null()) ? nullptr : m;
}

const JsonValue* JsonDecoder::member(std::string_view key,
                                     JsonValue::Kind kind, const char* what) {
  const JsonValue* m = req(key);
  if (m == nullptr || m->kind() == kind) return m;
  fail(std::string(key) + " is not " + what);
  return nullptr;
}

std::uint64_t JsonDecoder::u64(std::string_view key) {
  const JsonValue* m = member(key, JsonValue::Kind::kNumber, "a number");
  return m == nullptr ? 0 : m->as_u64();
}

double JsonDecoder::dbl(std::string_view key) {
  const JsonValue* m = member(key, JsonValue::Kind::kNumber, "a number");
  return m == nullptr ? 0.0 : m->as_double();
}

std::string JsonDecoder::str(std::string_view key) {
  const JsonValue* m = member(key, JsonValue::Kind::kString, "a string");
  return m == nullptr ? std::string() : m->as_string();
}

bool JsonDecoder::boolean(std::string_view key) {
  const JsonValue* m = member(key, JsonValue::Kind::kBool, "a bool");
  return m != nullptr && m->as_bool();
}

const JsonValue* JsonDecoder::array(std::string_view key) {
  return member(key, JsonValue::Kind::kArray, "an array");
}

const JsonValue* JsonDecoder::object(std::string_view key) {
  return member(key, JsonValue::Kind::kObject, "an object");
}

std::vector<std::uint64_t> JsonDecoder::u64_array(std::string_view key) {
  std::vector<std::uint64_t> out;
  const JsonValue* arr = array(key);
  if (arr == nullptr) return out;
  out.reserve(arr->items().size());
  for (const JsonValue& item : arr->items()) {
    if (!item.is_number()) {
      fail(std::string(key) + " holds an item that is not a number");
      return {};
    }
    out.push_back(item.as_u64());
  }
  return out;
}

void JsonDecoder::expect_version(std::uint64_t want) {
  const std::uint64_t got = u64("schema_version");
  if (ok() && got != want)
    fail("schema_version " + std::to_string(got) + ", this build reads " +
         std::to_string(want));
}

}  // namespace dxbsp::obs
