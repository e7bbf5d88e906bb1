#include "resilience/framed_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>

namespace dxbsp::resilience {

namespace {

std::string failed(const std::string& what, const std::string& path,
                   int err) {
  return what + " " + path + ": " + std::strerror(err);
}

}  // namespace

std::uint32_t crc32(std::span<const unsigned char> data,
                    std::uint32_t seed) noexcept {
  // Slicing-by-8 IEEE CRC-32: t[0] is the byte-at-a-time table and
  // t[k][b] advances t[k-1][b] by one more zero byte, so one 64-bit
  // word folds in with eight lookups. Built once, lazily.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::size_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  const unsigned char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le<std::uint64_t>(p) ^ c;
    c = t[7][w & 0xFFU] ^ t[6][(w >> 8) & 0xFFU] ^ t[5][(w >> 16) & 0xFFU] ^
        t[4][(w >> 24) & 0xFFU] ^ t[3][(w >> 32) & 0xFFU] ^
        t[2][(w >> 40) & 0xFFU] ^ t[1][(w >> 48) & 0xFFU] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

void seal_crc(std::span<unsigned char> bytes, std::size_t crc_at) noexcept {
  store_le(bytes.data() + crc_at, crc32(bytes.subspan(crc_at + 4)));
}

std::string crc_mismatch(std::span<const unsigned char> bytes,
                         std::size_t crc_at) {
  const auto stored = load_le<std::uint32_t>(bytes.data() + crc_at);
  const std::uint32_t computed = crc32(bytes.subspan(crc_at + 4));
  if (stored == computed) return {};
  return "CRC mismatch (stored " + std::to_string(stored) + ", computed " +
         std::to_string(computed) + ")";
}

Expected<std::vector<unsigned char>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Error(ErrorCode::kIo, failed("cannot open", path, errno));
  std::string error;
  std::vector<unsigned char> bytes;
  struct stat st {};
  if (::fstat(fd, &st) != 0)
    error = failed("cannot stat", path, errno);
  else
    bytes.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (error.empty() && got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0)
      error = failed("read failed for", path, errno);
    else if (n == 0)
      bytes.resize(got);  // shrank since fstat: keep what is there
    else
      got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (!error.empty()) return Error(ErrorCode::kIo, error);
  return bytes;
}

std::string write_tmp(const std::string& path,
                      std::span<const unsigned char> bytes,
                      Durability durability, std::size_t max_write) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return failed("cannot open", tmp, errno);
  std::string error;
  std::size_t written = 0;
  while (error.empty() && written < bytes.size()) {
    std::size_t want = bytes.size() - written;
    if (max_write != 0 && want > max_write) want = max_write;
    const ssize_t n = ::write(fd, bytes.data() + written, want);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0)
      error = failed("write failed for", tmp, errno);
    else
      written += static_cast<std::size_t>(n);
  }
  if (error.empty() && durability == Durability::kFsync && ::fsync(fd) != 0)
    error = failed("fsync failed for", tmp, errno);
  if (::close(fd) != 0 && error.empty())
    error = failed("close failed for", tmp, errno);
  if (!error.empty()) std::remove(tmp.c_str());  // never leave a torn tmp
  return error;
}

std::string rename_tmp(const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (std::rename(tmp.c_str(), path.c_str()) == 0) return {};
  const std::string error = failed("rename " + tmp + " ->", path, errno);
  std::remove(tmp.c_str());
  return error;
}

void publish(const std::string& path, std::span<const unsigned char> bytes,
             Durability durability) {
  std::string error = write_tmp(path, bytes, durability);
  if (error.empty()) error = rename_tmp(path);
  if (!error.empty()) raise(ErrorCode::kIo, error);
}

}  // namespace dxbsp::resilience
