#pragma once
// Per-process scratch paths for tests that write files.
//
// ctest runs every discovered case as its own process, in parallel
// under `ctest -j`. A fixed path under ::testing::TempDir() would be
// shared by concurrent processes (one case's fleet reading another's
// leases, a baseline report overwritten mid-read), so every process
// works in its own directory named after its pid and its first test.
// The directory is removed when the process exits.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace dxbsp::testing_tmp {

/// This process's scratch directory, with a trailing '/'. Created (fresh)
/// on first use.
inline const std::string& process_dir() {
  struct Dir {
    std::string path;
    pid_t owner = ::getpid();
    Dir() {
      const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
      std::string name = info == nullptr
                             ? std::string("global")
                             : std::string(info->test_suite_name()) + "." +
                                   info->name();
      for (char& c : name)
        if (c == '/' || c == ' ') c = '_';
      path = ::testing::TempDir() + "dxbsp_" + std::to_string(owner) + "_" +
             name;
      std::error_code ec;
      std::filesystem::remove_all(path, ec);  // a dead process's leftovers
      std::filesystem::create_directories(path, ec);
      path += '/';
    }
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
    ~Dir() {
      if (::getpid() != owner) return;  // never from a forked child
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// A path for `name` inside this process's scratch directory.
inline std::string path(const std::string& name) { return process_dir() + name; }

}  // namespace dxbsp::testing_tmp
