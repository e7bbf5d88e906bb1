// spill_fsck: offline integrity check of a spill directory (DXSPL1
// chunk files, docs/streaming.md).
//
//   spill_fsck --dir=PATH [--stream-id=ID] [--verbose]
//
// Walks every *.spl file in the directory, validates magic, version,
// length and CRC (the same SpillStore::parse path the executor trusts at
// restore time), cross-checks each chunk's embedded (partition, chunk)
// labels against its filename, and — when --stream-id is given — flags
// chunks belonging to a different stream. Orphaned *.tmp files (a crash
// between fsync and rename) are reported but are not corruption: the
// store removes them on its next startup.
//
// Exit codes: 0 all chunks valid, 65 (EX_DATAERR) when any chunk fails
// validation, 64 on flag errors, 74 on unreadable files.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <vector>

#include "resilience/error.hpp"
#include "resilience/framed_file.hpp"
#include "stream/spill_store.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dxbsp;
  try {
    const util::Cli cli(argc, argv);
    const std::string dir = cli.get("dir", "");
    if (dir.empty()) raise(ErrorCode::kConfig, "--dir=PATH is required");
    const bool verbose = cli.has("verbose");
    const bool check_stream = cli.has("stream-id");
    const std::uint64_t stream_id = cli.get_uint("stream-id", 0);

    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
      raise(ErrorCode::kIo, "cannot read " + dir + ": " + ec.message());

    std::vector<std::filesystem::path> files;
    std::uint64_t orphans = 0;
    for (const auto& entry : it) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() == ".tmp") {
        ++orphans;
        std::cout << "ORPHAN " << entry.path().string()
                  << " (crash mid-spill; removed on next store startup)\n";
        continue;
      }
      if (entry.path().extension() == ".spl") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());

    std::uint64_t ok = 0;
    std::uint64_t bad = 0;
    std::uint64_t bytes = 0;
    bool io_failed = false;
    for (const auto& path : files) {
      const auto data = resilience::read_file(path.string());
      if (!data) {
        std::cout << "UNREADABLE " << data.error().what() << "\n";
        io_failed = true;
        continue;
      }
      const Expected<stream::SpillChunk> parsed =
          stream::SpillStore::parse(data.value(), path.string());
      if (!parsed) {
        std::cout << "BAD " << parsed.error().what() << "\n";
        ++bad;
        continue;
      }
      const stream::SpillChunk& c = parsed.value();
      // Appended, not "p" + ...: GCC 12's -Wrestrict misreads the
      // inlined insert-at-front of const char* + std::string&&.
      const std::string expect_name = std::string("p")
                                          .append(std::to_string(c.partition))
                                          .append("-c")
                                          .append(std::to_string(c.chunk))
                                          .append(".spl");
      if (path.filename().string() != expect_name) {
        std::cout << "BAD " << path.string() << ": labelled " << expect_name
                  << " inside\n";
        ++bad;
        continue;
      }
      if (check_stream && c.stream_id != stream_id) {
        std::cout << "BAD " << path.string() << ": stream "
                  << c.stream_id << ", expected " << stream_id << "\n";
        ++bad;
        continue;
      }
      ++ok;
      bytes += data.value().size();
      if (verbose)
        std::cout << "OK " << path.string() << " stream=" << c.stream_id
                  << " elements=" << c.data.size() << "\n";
    }
    std::cout << "spill_fsck: " << ok << " ok, " << bad << " bad, " << orphans
              << " orphaned tmp, " << bytes << " bytes scanned\n";
    if (bad > 0) return exit_code(ErrorCode::kCorruptSnapshot);
    if (io_failed) return exit_code(ErrorCode::kIo);
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  }
}
