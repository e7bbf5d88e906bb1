#pragma once
// Address-trace persistence.
//
// The paper's methodology extracts memory access patterns from real
// program runs and replays them against the model and machine. These
// helpers store and reload such traces so experiments can be rerun (and
// externally produced traces imported) without regenerating workloads:
// a small binary format for bulk data and a one-address-per-line text
// format for interchange.
//
// Binary layout (little-endian), a framed file (resilience/framed_file):
//
//   u8  magic[8]  "dxbsptr2" (the trailing digit is the version)
//   u64 count     address count, checked against the file size
//   u32 crc32     IEEE CRC-32 over every byte after this field
//   u64 addrs[count]
//
// Version 1 ("dxbsptr1": magic and count, no CRC) is retired; loading a
// v1 file fails with a message that says so.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "resilience/error.hpp"

namespace dxbsp::workload {

/// Publishes the trace in the binary format (fsync, then tmp -> rename,
/// so `path` never holds a torn trace). Throws Error{kIo} on failure.
void save_trace(const std::string& path,
                const std::vector<std::uint64_t>& addrs);

/// Reads a binary trace written by save_trace, reporting failure as a
/// value: Error{kIo} when the file cannot be opened or read, and
/// Error{kCorruptInput} when it fails format validation.
[[nodiscard]] Expected<std::vector<std::uint64_t>> try_load_trace(
    const std::string& path);

/// Throwing form of try_load_trace for call sites that treat a missing
/// or corrupt trace as fatal.
[[nodiscard]] std::vector<std::uint64_t> load_trace(const std::string& path);

/// The binary format's bytes for `addrs`.
[[nodiscard]] std::vector<unsigned char> encode_trace(
    std::span<const std::uint64_t> addrs);

/// Parses bytes in the binary format. The count is checked against the
/// bytes present before anything is allocated from it; every failure is
/// Error{kCorruptInput} naming `origin`.
[[nodiscard]] Expected<std::vector<std::uint64_t>> parse_trace(
    std::span<const unsigned char> bytes, const std::string& origin);

/// Writes one decimal address per line (interchange/text form).
void save_trace_text(std::ostream& os,
                     const std::vector<std::uint64_t>& addrs);

/// Reads one decimal address per line; blank lines and lines starting
/// with '#' are skipped. Throws Error{kParse} on a malformed line.
[[nodiscard]] std::vector<std::uint64_t> load_trace_text(std::istream& is);

}  // namespace dxbsp::workload
