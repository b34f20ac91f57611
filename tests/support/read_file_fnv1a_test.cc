// The two byte-level helpers every layer shares: the FNV-1a digest (pinned to the
// published 64-bit test vectors, since state-directory payload names and image
// checksums are made of it) and the whole-file reader.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "src/support/failpoint.h"
#include "src/support/fnv1a.h"
#include "src/support/read_file.h"

namespace pathalias {
namespace support {
namespace {

namespace fs = std::filesystem;

TEST(Fnv1a, MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, SeedChainsAcrossSpans) {
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
}

class ReadWholeFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("pathalias_read_file_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    failpoint::Reset();
    fs::remove_all(dir_);
  }
  fs::path Write(const std::string& name, const std::string& bytes) {
    fs::path path = dir_ / name;
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
  }

  fs::path dir_;
};

TEST_F(ReadWholeFileTest, ReadsEveryByte) {
  std::string bytes(200'000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 31 + 7);
  }
  EXPECT_EQ(ReadWholeFile(Write("big", bytes).string()), bytes);
  EXPECT_EQ(ReadWholeFile(Write("empty", "").string()), std::string());
}

TEST_F(ReadWholeFileTest, MissingFileIsNullopt) {
  EXPECT_FALSE(ReadWholeFile((dir_ / "absent").string()).has_value());
  EXPECT_FALSE(ReadWholeFile(dir_.string()).has_value());  // a directory reads as an error
}

TEST_F(ReadWholeFileTest, PipeWithNoSizeReadsToEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string bytes = "hub\tmid(100)\nmid\thub(100)\n";
  ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  EXPECT_EQ(ReadWholeFd(fds[0]), bytes);
  ::close(fds[0]);
}

TEST_F(ReadWholeFileTest, FailpointFailsTheRead) {
  fs::path path = Write("map", "hub\tmid(100)\n");
  ASSERT_TRUE(failpoint::Arm("file.read", "once"));
  EXPECT_FALSE(ReadWholeFile(path.string()).has_value());
  EXPECT_EQ(ReadWholeFile(path.string()), "hub\tmid(100)\n");
}

}  // namespace
}  // namespace support
}  // namespace pathalias
