#include "workload/trace_io.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string_view>

#include "resilience/framed_file.hpp"

namespace dxbsp::workload {

namespace {

using resilience::load_le;
using resilience::store_le;

constexpr std::string_view kMagic = "dxbsptr2";
constexpr std::string_view kRetiredMagic = "dxbsptr1";
constexpr std::size_t kCountAt = 8;
constexpr std::size_t kCrcAt = 16;
constexpr std::size_t kHeaderBytes = 20;

Error corrupt(const std::string& origin, const std::string& what) {
  return Error(ErrorCode::kCorruptInput, "load_trace: " + origin + ": " + what);
}

}  // namespace

std::vector<unsigned char> encode_trace(std::span<const std::uint64_t> addrs) {
  // The addresses' native bytes are their little-endian encoding on the
  // hosts framed_file.hpp admits, so the payload is one copy.
  std::vector<unsigned char> out(kHeaderBytes + addrs.size_bytes());
  std::copy(kMagic.begin(), kMagic.end(), out.begin());
  store_le(out.data() + kCountAt, std::uint64_t{addrs.size()});
  if (!addrs.empty())
    std::memcpy(out.data() + kHeaderBytes, addrs.data(), addrs.size_bytes());
  resilience::seal_crc(out, kCrcAt);
  return out;
}

Expected<std::vector<std::uint64_t>> parse_trace(
    std::span<const unsigned char> bytes, const std::string& origin) {
  const std::string_view head = resilience::text_view(
      bytes.first(std::min(bytes.size(), kMagic.size())));
  if (head == kRetiredMagic)
    return corrupt(origin, "a dxbsptr1 trace: that version (no CRC) is "
                           "retired; regenerate the trace with save_trace");
  if (head != kMagic) return corrupt(origin, "bad magic (not a dxbsp trace)");
  if (bytes.size() < kHeaderBytes)
    return corrupt(origin, "truncated header (" +
                               std::to_string(bytes.size()) + " bytes)");

  // The header count is untrusted input: validate it against the bytes
  // actually present before allocating, so a corrupt or truncated trace
  // fails cleanly instead of attempting a count*8-byte allocation.
  const auto count = load_le<std::uint64_t>(bytes.data() + kCountAt);
  const std::uint64_t payload = bytes.size() - kHeaderBytes;
  if (count > payload / sizeof(std::uint64_t) ||
      payload != count * sizeof(std::uint64_t))
    return corrupt(origin, "header claims " + std::to_string(count) +
                               " words (" + std::to_string(count) +
                               "*8 bytes) but the file holds " +
                               std::to_string(payload) +
                               " payload bytes (corrupt or truncated trace)");
  if (const std::string bad = resilience::crc_mismatch(bytes, kCrcAt);
      !bad.empty())
    return corrupt(origin, bad);

  std::vector<std::uint64_t> addrs(count);
  if (count != 0)
    std::memcpy(addrs.data(), bytes.data() + kHeaderBytes, payload);
  return addrs;
}

void save_trace(const std::string& path,
                const std::vector<std::uint64_t>& addrs) {
  resilience::publish(path, encode_trace(addrs),
                      resilience::Durability::kFsync);
}

Expected<std::vector<std::uint64_t>> try_load_trace(const std::string& path) {
  auto bytes = resilience::read_file(path);
  if (!bytes.ok()) return bytes.error();
  return parse_trace(bytes.value(), path);
}

std::vector<std::uint64_t> load_trace(const std::string& path) {
  return std::move(try_load_trace(path)).value();
}

void save_trace_text(std::ostream& os,
                     const std::vector<std::uint64_t>& addrs) {
  for (const auto a : addrs) os << a << "\n";
}

std::vector<std::uint64_t> load_trace_text(std::istream& is) {
  std::vector<std::uint64_t> addrs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t a = 0;
    if (!(ls >> a)) {
      std::ostringstream msg;
      msg << "load_trace_text: malformed line " << lineno << ": '" << line
          << "'";
      raise(ErrorCode::kParse, msg.str());
    }
    addrs.push_back(a);
  }
  return addrs;
}

}  // namespace dxbsp::workload
