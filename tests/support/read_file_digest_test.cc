// The two byte-level helpers every layer shares: the XXH64 digest (pinned to the
// published vectors and to a spec-literal reference, since input digests, state
// payload names and image checksums are made of it) and the whole-file reader.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/support/digest.h"
#include "src/support/failpoint.h"
#include "src/support/read_file.h"

namespace pathalias {
namespace support {
namespace {

namespace fs = std::filesystem;

TEST(Digest, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(Digest(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Digest("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Digest("abc"), 0x44bc2cf5ad770999ull);
  // 39 bytes: one 32-byte stripe, then the 4-byte and the 1-byte tails.
  EXPECT_EQ(Digest("Nobody inspects the spammish repetition"), 0xfbcea83c8a378bf1ull);
  EXPECT_EQ(Digest("xxhash", 20141025), 0xb559b98d844e0635ull);
}

// Byte i of the tail-path fixture.
char FixtureByte(size_t i) { return static_cast<char>((i * 37 + 11) & 0xff); }

// XXH64 of the first L fixture bytes, for L = 0..64 and 100, from a spec-literal
// reference written apart from src/support/digest.h.  Between them these lengths
// take every path: no stripe, one or two 32-byte stripes, and each mix of the 8-,
// 4- and 1-byte tail steps.
constexpr std::array<uint64_t, 66> kTailGoldens = {
    0xef46db3751d8e999ull, 0xf592c0c7639c4cb6ull, 0x78f1ae91e3b05e99ull,
    0x22c08528601d4f27ull, 0xfb1e5cf2f1ae4d95ull, 0x9d213eca1f68f273ull,
    0x0f28996d1449561eull, 0x5613ac510496c04eull, 0x57cb2b7521f3e21aull,
    0xc3f1d09775257b66ull, 0x920f407f474903ffull, 0x1bef4539443a2d5aull,
    0x2f53b00266039e64ull, 0xaed0293a7bb13c7aull, 0x393648aa0a97d46full,
    0x90a9714eb00e8d29ull, 0xc6843cef99721174ull, 0xf72e5e622b272ad6ull,
    0xade42c5775a43c96ull, 0xc3bdab4626258ceaull, 0xa62c18328d2d838dull,
    0x2f04ff79d78f8827ull, 0x1e5b0540defc3911ull, 0x5e6a1fe05d7c06f8ull,
    0xfa2d58b357e1565eull, 0x8adefb8c854b47a5ull, 0x2b085f5f9da33210ull,
    0x87b80516e95cbbbcull, 0xff5c77ef1446f7e5ull, 0x8b15b1001a84dbdbull,
    0x6077f1ac1f080751ull, 0xe4a0e629e519a4aeull, 0xcc6b8aaada790b2dull,
    0x35ec49850475a832ull, 0xf56a57787fd5fe4eull, 0x59de01e65b64555bull,
    0xbebb6d8c24fb3cfaull, 0x5f313a6790502101ull, 0x9ffd421ba9cd1babull,
    0x22984e41b53c1210ull, 0x3b21ed23eea85c2dull, 0x25c2b9e2f81a6a9dull,
    0x126f6f74a01c7118ull, 0x03c47edf3964bb63ull, 0xa9a8f93ce6f588d3ull,
    0xfc003d355fa58a61ull, 0x2af21f2c679a3b30ull, 0x16fdd9ca22942ddaull,
    0xf6c2a2407a06c116ull, 0x1951edf80e0e88a1ull, 0x8966cf42dc674cb9ull,
    0xca011706caf89aa3ull, 0xc97263946e120e53ull, 0xf540a55131f40746ull,
    0xab9a21d36f37bce2ull, 0x66a3eed6214e51ffull, 0xd44977c91550cf3bull,
    0x52f38f5975796217ull, 0x9996904218108a75ull, 0xd8213a1477e2e240ull,
    0x2bafa54dfa33d5a4ull, 0xcdc4536663934e01ull, 0x57b94e18c6b9173full,
    0xbf9f0ba3cf95b28aull, 0x155ccce4bf32befcull, 0x4826e367566ea023ull,
};

TEST(Digest, PinsEveryTailPathAtEveryStartOffset) {
  constexpr size_t kMaxOffset = 16;
  for (size_t index = 0; index < kTailGoldens.size(); ++index) {
    const size_t length = index < 65 ? index : 100;
    // The same bytes starting at every offset from an 8-aligned base: the loads
    // must not care where a word begins.
    for (size_t offset = 0; offset < kMaxOffset; ++offset) {
      alignas(8) char buffer[kMaxOffset + 100];
      std::memset(buffer, 0xff, sizeof(buffer));
      for (size_t i = 0; i < length; ++i) {
        buffer[offset + i] = FixtureByte(i);
      }
      EXPECT_EQ(Digest(std::string_view(buffer + offset, length)), kTailGoldens[index])
          << "length " << length << " at offset " << offset;
    }
  }
}

TEST(Digest, SeedSelectsADifferentDigest) {
  std::string bytes(100, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = FixtureByte(i);
  }
  EXPECT_EQ(Digest(bytes, 0x1234567890abcdefull), 0xf7d290f5787ab4a3ull);
  EXPECT_NE(Digest(bytes, 1), Digest(bytes));
  // No FNV-style chaining: a digest over two spans is not the digest of the whole.
  EXPECT_NE(Digest("bar", Digest("foo")), Digest("foobar"));
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
