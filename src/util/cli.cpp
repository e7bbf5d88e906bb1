#include "util/cli.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "resilience/error.hpp"

namespace dxbsp::util {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      spaced_.erase(arg.substr(0, eq));
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // "--name value": consume the next token as the value.
      flags_[arg] = argv[++i];
      spaced_.insert(arg);
    } else {
      flags_[arg] = "true";  // bare boolean flag
      spaced_.erase(arg);
    }
  }
}

const std::string* Cli::find(const std::string& name, bool boolean) const {
  read_.insert(name);
  if (!boolean) valued_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

void Cli::reject_unread() const {
  for (const auto& [name, value] : flags_)
    if (read_.count(name) == 0)
      raise(ErrorCode::kParse, "unknown flag --" + name);
  // A boolean flag took the next token as its value ("--quiet stray"):
  // unless that token is a boolean, it was a stray argument.
  for (const std::string& name : spaced_) {
    const std::string& value = flags_.at(name);
    if (valued_.count(name) == 0 && value != "true" && value != "false" &&
        value != "1" && value != "0")
      raise(ErrorCode::kParse, "unexpected argument '" + value + "'");
  }
  if (!positional_.empty())
    raise(ErrorCode::kParse,
          "unexpected argument '" + positional_.front() + "'");
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  const std::string* value = find(name);
  return value == nullptr ? def : *value;
}

namespace {

// Strict integer parse: the whole token must be one in-range number.
// std::stoll would accept "8x" (stopping at the 'x'), which in a sweep
// script turns a typo into a silently wrong grid — reject it instead,
// naming the flag so the message is actionable.
template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  T value{};
  const char* begin = text.c_str();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range)
    raise(ErrorCode::kParse, "flag --" + name + ": value '" + text +
                                 "' is out of range");
  if (ec != std::errc{} || text.empty())
    raise(ErrorCode::kParse, "flag --" + name + " expects an integer, got '" +
                                 text + "'");
  if (ptr != end)
    raise(ErrorCode::kParse, "flag --" + name + ": trailing garbage in '" +
                                 text + "'");
  return value;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const std::string* value = find(name);
  if (value == nullptr) return def;
  return parse_number<std::int64_t>(name, *value);
}

std::uint64_t Cli::get_uint(const std::string& name, std::uint64_t def) const {
  const std::string* value = find(name);
  if (value == nullptr) return def;
  // from_chars<unsigned> rejects '-' already, but say why explicitly:
  // "--n=-4" deserves "must be non-negative", not "expects an integer".
  if (!value->empty() && (*value)[0] == '-')
    raise(ErrorCode::kParse, "flag --" + name + " must be non-negative, got '" +
                                 *value + "'");
  return parse_number<std::uint64_t>(name, *value);
}

double Cli::get_double(const std::string& name, double def) const {
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& text = *found;
  // strtod instead of from_chars<double>: equally strict once we check
  // full consumption, and not dependent on libstdc++'s FP from_chars.
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0')
    raise(ErrorCode::kParse, "flag --" + name + " expects a number, got '" +
                                 text + "'");
  if (errno == ERANGE)
    raise(ErrorCode::kParse, "flag --" + name + ": value '" + text +
                                 "' is out of range");
  return value;
}

bool Cli::has(const std::string& name) const {
  const std::string* value = find(name, /*boolean=*/true);
  return value != nullptr && *value != "false" && *value != "0";
}

}  // namespace dxbsp::util
