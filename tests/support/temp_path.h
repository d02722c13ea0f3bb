// Per-test temporary file paths.
//
// ctest runs every gtest case as its own process, concurrently, so two cases
// writing one fixed path (e.g. /tmp/bdm_checkpoint_test.bin) overwrite or
// delete each other's file mid-test; two checkouts on one host collide the
// same way. TempPath builds a name no other running test can pick: the
// directory from TMPDIR (default /tmp), then the current gtest suite and
// case name, the process id and a caller-chosen suffix.
#ifndef BDM_TESTS_SUPPORT_TEMP_PATH_H_
#define BDM_TESTS_SUPPORT_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <string>

namespace bdm::test {

/// "<TMPDIR>/bdm_<suite>.<case>_<pid>_<suffix>"; characters outside
/// [A-Za-z0-9._-] in the test name (parameterized names carry '/') become
/// '_'. Call from inside a running test.
inline std::string TempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : "no_test";
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '-') {
      c = '_';
    }
  }
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir = tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp";
  if (dir.back() != '/') {
    dir += '/';
  }
  return dir + "bdm_" + name + "_" + std::to_string(getpid()) + "_" + suffix;
}

}  // namespace bdm::test

#endif  // BDM_TESTS_SUPPORT_TEMP_PATH_H_
