// End-to-end check of `ems_generate`: runs the real binary into an
// output directory that does not exist yet and expects it to be created.
// The binary path is injected by CMake as EMS_GENERATE_BINARY.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ems {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

TEST(EmsGenerateTest, CreatesMissingNestedOutputDirectory) {
  const std::filesystem::path root =
      std::filesystem::path(TempDir()) /
      ("ems_generate_test_" + std::to_string(getpid()));
  std::filesystem::remove_all(root);
  const std::filesystem::path dir = root / "missing" / "sub";

  const std::string cmd = std::string(EMS_GENERATE_BINARY) +
                          " --pairs=1 --activities=5 --traces=10 " +
                          dir.string() + " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  EXPECT_TRUE(std::filesystem::is_regular_file(dir / "pair0_a.xes"));
  std::filesystem::remove_all(root);
}

// A numeric flag with a trailing suffix is a usage error naming the
// flag, not a truncated value: --traces=1e3x must not write 1-trace logs.
TEST(EmsGenerateTest, RejectsMalformedNumericFlag) {
  const std::filesystem::path root =
      std::filesystem::path(TempDir()) /
      ("ems_generate_flag_test_" + std::to_string(getpid()));
  std::filesystem::remove_all(root);
  const std::string err = root.string() + ".stderr";

  const std::string cmd = std::string(EMS_GENERATE_BINARY) +
                          " --pairs=1 --traces=1e3x " + root.string() +
                          " > /dev/null 2> " + err;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << cmd;
  EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
  std::ifstream in(err);
  std::ostringstream message;
  message << in.rdbuf();
  EXPECT_NE(message.str().find("--traces"), std::string::npos)
      << message.str();
  EXPECT_FALSE(std::filesystem::exists(root));
  std::filesystem::remove_all(root);
  std::filesystem::remove(err);
}

}  // namespace
}  // namespace ems
