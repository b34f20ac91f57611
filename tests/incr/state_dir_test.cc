// State-dir robustness: generation stamping, corrupt/truncated/skewed loads
// falling back cleanly to rebuild-needed, crash-safe manifest publishing under
// injected faults, and the incremental save (only unknown payloads serialized,
// the same bytes as a full save, every failure path leaving a loadable state).
// The happy-path round trip lives in incremental_test.cc.

#include "src/incr/state_dir.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/incr/artifact.h"
#include "src/incr/map_builder.h"
#include "src/support/digest.h"
#include "src/support/failpoint.h"
#include "tests/incr/state_dir_oracle.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;
namespace failpoint = support::failpoint;

fs::path MakeScratchDir() {
  static int counter = 0;
  fs::path dir = fs::temp_directory_path() /
                 ("pathalias_statedir_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter++));
  fs::remove_all(dir);
  return dir;
}

StateDirContents SmallContents() {
  StateDirContents contents;
  contents.local = "hub";
  contents.ignore_case = false;
  contents.image_generation = 7;
  Diagnostics diag;
  contents.artifacts.push_back(
      ParseFileToArtifact({"a.map", "hub\talpha(3), beta\n"}, &diag));
  contents.artifacts.push_back(
      ParseFileToArtifact({"b.map", "beta\tgamma(2)\n"}, &diag));
  return contents;
}

std::string ReadFileText(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// A three-file map; `mid_cost` edits the middle file.
std::vector<InputFile> ThreeFiles(int mid_cost) {
  return {
      {"core.map", "hub\tmid(100), far(400)\n"},
      {"mid.map", "mid\thub(100), leafa(" + std::to_string(mid_cost) + "), leafb(60)\n"},
      {"far.map", "far\thub(400), leafc(10)\nleafc\tfar(10)\n"},
  };
}

StateDirHeader HeaderOf(const MapBuilder& builder, uint64_t generation) {
  StateDirHeader header;
  header.local = builder.options().local;
  header.ignore_case = builder.options().ignore_case;
  header.image_generation = generation;
  return header;
}

// Payload file name → inode.
std::map<std::string, ino_t> PayloadInodes(const fs::path& dir) {
  std::map<std::string, ino_t> inodes;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir / "artifacts")) {
    struct stat st;
    if (::stat(entry.path().c_str(), &st) == 0) {
      inodes[entry.path().filename().string()] = st.st_ino;
    }
  }
  return inodes;
}

class StateDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeScratchDir();
    full_ = MakeScratchDir();
  }
  void TearDown() override {
    failpoint::Reset();
    fs::remove_all(dir_);
    fs::remove_all(full_);
  }

  fs::path dir_;
  fs::path full_;  // where the oracle's full save goes
};

TEST_F(StateDirTest, GenerationRoundTrips) {
  StateDirContents contents = SmallContents();
  contents.image_generation = 42;
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));
  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 42u);
  EXPECT_EQ(loaded->artifacts.size(), 2u);
}

// Versions 1 and 2 digested with FNV-1a: their input digests and payload names mean
// nothing to this binary, so they are refused with the command that rebuilds them.
TEST_F(StateDirTest, OlderManifestVersionRefusedWithTheFix) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  const std::string saved = ReadFileText(dir_ / "manifest");
  ASSERT_EQ(saved.rfind("pathalias-state 3\n", 0), 0u) << saved;
  for (const char* older : {"pathalias-state 2", "pathalias-state 1"}) {
    std::string manifest = saved;
    manifest.replace(0, 17, older);
    WriteFileText(dir_ / "manifest", manifest);

    std::string error;
    EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value()) << older;
    EXPECT_NE(error.find("routedb update --init"), std::string::npos) << error;
  }
}

TEST_F(StateDirTest, FutureVersionRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t header_at = manifest.find("pathalias-state 3");
  ASSERT_NE(header_at, std::string::npos);
  manifest.replace(header_at, 17, "pathalias-state 9");
  WriteFileText(dir_ / "manifest", manifest);

  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_NE(error.find("newer"), std::string::npos) << error;
}

TEST_F(StateDirTest, TruncatedManifestRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  // Chop at every prefix length: no truncation point may crash or misload.
  for (size_t keep = 0; keep < manifest.size(); keep += 7) {
    WriteFileText(dir_ / "manifest", manifest.substr(0, keep));
    std::string error;
    EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value())
        << "prefix of " << keep << " bytes loaded";
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(StateDirTest, TruncatedArtifactRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_ / "artifacts")) {
    std::string bytes = ReadFileText(entry.path());
    ASSERT_GT(bytes.size(), 4u);
    WriteFileText(entry.path(), bytes.substr(0, bytes.size() / 2));
    break;  // one torn payload is enough to poison the directory
  }
  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(StateDirTest, DigestMismatchRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  // Corrupt the first digit of the first artifact line's digest.
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t files_line = manifest.find("files\t");
  ASSERT_NE(files_line, std::string::npos);
  size_t digest_at = manifest.find('\n', files_line) + 1;
  ASSERT_LT(digest_at, manifest.size());
  manifest[digest_at] = manifest[digest_at] == '1' ? '2' : '1';
  WriteFileText(dir_ / "manifest", manifest);

  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

TEST_F(StateDirTest, MalformedGenerationRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t generation_at = manifest.find("generation\t7");
  ASSERT_NE(generation_at, std::string::npos);
  manifest.replace(generation_at, 12, "generation\tx");
  WriteFileText(dir_ / "manifest", manifest);

  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_NE(error.find("generation"), std::string::npos) << error;
}

// The satellite regression: a crash (injected failure) between writing the
// manifest temp file and renaming it must leave the previously published
// manifest fully intact — loads succeed and see the OLD contents.
TEST_F(StateDirTest, FailedRenameKeepsPreviousManifest) {
  StateDirContents contents = SmallContents();
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));

  contents.image_generation = 8;
  ASSERT_TRUE(failpoint::Arm("state.publish.rename", "always,errno:ENOSPC"));
  EXPECT_FALSE(SaveStateDir(dir_.string(), contents));
  failpoint::Reset();

  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 7u);  // the OLD publish, not the torn one
}

TEST_F(StateDirTest, ShortWriteNeverTearsPublishedManifest) {
  StateDirContents contents = SmallContents();
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));
  std::string before = ReadFileText(dir_ / "manifest");

  contents.image_generation = 8;
  // The .write site simulates ENOSPC after half the bytes: the torn bytes live
  // only in the temp file (unlinked on failure), never at the published path.
  ASSERT_TRUE(failpoint::Arm("state.publish.write", "always,errno:ENOSPC"));
  EXPECT_FALSE(SaveStateDir(dir_.string(), contents));
  failpoint::Reset();

  EXPECT_EQ(ReadFileText(dir_ / "manifest"), before);
  std::string error;
  ASSERT_TRUE(LoadStateDir(dir_.string(), &error).has_value()) << error;
}

TEST_F(StateDirTest, FsyncFailureReportsAndKeepsOld) {
  StateDirContents contents = SmallContents();
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));

  contents.image_generation = 8;
  ASSERT_TRUE(failpoint::Arm("state.publish.fsync", "always,errno:EIO"));
  EXPECT_FALSE(SaveStateDir(dir_.string(), contents));
  failpoint::Reset();

  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 7u);
}

TEST_F(StateDirTest, LeftoverTempFileFromCrashIsRecoveredFrom) {
  // A real crash leaves <manifest>.tmp behind (no unlink ran).  The next save
  // must truncate and overwrite it, and loads must ignore it entirely.
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  WriteFileText(dir_ / "manifest.tmp", "garbage from a crashed publish");

  std::string error;
  ASSERT_TRUE(LoadStateDir(dir_.string(), &error).has_value()) << error;

  StateDirContents contents = SmallContents();
  contents.image_generation = 9;
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 9u);
}

// --- the incremental save ---

TEST_F(StateDirTest, IncrementalSaveWritesWhatAFullSaveWrites) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(ThreeFiles(50)));
  ASSERT_TRUE(builder.SaveState(dir_.string(), 1));
  EXPECT_EQ(StateDirFiles(dir_), FullSaveFiles(full_, HeaderOf(builder, 1), builder.artifacts()));
  std::map<std::string, ino_t> before = PayloadInodes(dir_);

  builder.Update({ThreeFiles(55)[1]});
  ASSERT_TRUE(builder.SaveState(dir_.string(), 2));
  EXPECT_EQ(StateDirFiles(dir_), FullSaveFiles(full_, HeaderOf(builder, 2), builder.artifacts()));
  // The edit changed one payload: one name went, one came, the rest kept their files.
  std::map<std::string, ino_t> after = PayloadInodes(dir_);
  ASSERT_EQ(after.size(), before.size());
  size_t kept = 0;
  for (const auto& [name, inode] : after) {
    auto it = before.find(name);
    kept += it != before.end() && it->second == inode ? 1 : 0;
  }
  EXPECT_EQ(kept, before.size() - 1);
  for (const FileArtifact& artifact : builder.artifacts()) {
    EXPECT_TRUE(artifact.payload_digest.has_value()) << artifact.file_name;
  }
}

TEST_F(StateDirTest, UnchangedSaveKeepsEveryPayloadFile) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(ThreeFiles(50)));
  ASSERT_TRUE(builder.SaveState(dir_.string(), 1));
  std::map<std::string, ino_t> before = PayloadInodes(dir_);
  ASSERT_EQ(before.size(), 3u);

  builder.Update(ThreeFiles(50));  // every digest matches: nothing to reparse
  ASSERT_TRUE(builder.SaveState(dir_.string(), 2));
  EXPECT_EQ(PayloadInodes(dir_), before);
  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 2u);
}

TEST_F(StateDirTest, KnownPayloadDigestSkipsSerialization) {
  StateDirContents contents = SmallContents();
  const StateDirHeader header = contents;
  ASSERT_TRUE(SaveStateDir(dir_.string(), header, contents.artifacts));
  for (const FileArtifact& artifact : contents.artifacts) {
    ASSERT_TRUE(artifact.payload_digest.has_value());
    EXPECT_EQ(*artifact.payload_digest, support::Digest(SerializeArtifact(artifact)));
  }
  std::map<std::string, std::string> before = StateDirFiles(dir_);

  // Edit an artifact behind its remembered digest.  A save that serialized it would
  // name and write a new payload; this one must not even look.
  contents.artifacts[0].errors.push_back(ParseError{1, "edited behind the digest"});
  ASSERT_TRUE(SaveStateDir(dir_.string(), header, contents.artifacts));
  EXPECT_EQ(StateDirFiles(dir_), before);

  // Forgetting the digest is what makes the next save serialize it again.
  contents.artifacts[0].payload_digest.reset();
  ASSERT_TRUE(SaveStateDir(dir_.string(), header, contents.artifacts));
  EXPECT_EQ(StateDirFiles(dir_), FullSaveFiles(full_, header, contents.artifacts));
  EXPECT_NE(StateDirFiles(dir_), before);
}

TEST_F(StateDirTest, LoadRemembersEachPayloadDigest) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  for (const FileArtifact& artifact : loaded->artifacts) {
    ASSERT_TRUE(artifact.payload_digest.has_value()) << artifact.file_name;
    EXPECT_EQ(*artifact.payload_digest, support::Digest(SerializeArtifact(artifact)));
  }
}

// Load takes a payload's digest from the bytes it read, which names the decoded
// artifact only if those are the bytes a save would write: the decoder accepts
// canonical bytes only.
TEST_F(StateDirTest, NonCanonicalPayloadRejected) {
  const std::string bytes = SerializeArtifact(SmallContents().artifacts[0]);
  auto decoded = DeserializeArtifact(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(SerializeArtifact(*decoded), bytes);
  EXPECT_FALSE(DeserializeArtifact(bytes + '\0').has_value());  // trailing byte

  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_ / "artifacts")) {
    WriteFileText(entry.path(), ReadFileText(entry.path()) + "x");
    break;
  }
  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

// A flipped byte that still decodes canonically, in a field no manifest entry
// repeats (here a symbol's spelling), must not be adopted under the payload's old
// name: load recomputes each payload's digest and checks it against the name.
TEST_F(StateDirTest, PayloadWhoseBytesDoNotMatchItsNameRejected) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  bool flipped = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_ / "artifacts")) {
    std::string bytes = ReadFileText(entry.path());
    size_t at = bytes.find("alpha");
    if (at == std::string::npos) {
      continue;
    }
    bytes[at + 4] = 'b';  // "alphb": a different, equally valid payload
    auto decoded = DeserializeArtifact(bytes);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(SerializeArtifact(*decoded), bytes);
    WriteFileText(entry.path(), bytes);
    flipped = true;
  }
  ASSERT_TRUE(flipped);
  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_NE(error.find("does not match its name"), std::string::npos) << error;
}

TEST_F(StateDirTest, DeletedPayloadIsRewritten) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(ThreeFiles(50)));
  ASSERT_TRUE(builder.SaveState(dir_.string(), 1));
  std::map<std::string, std::string> saved = StateDirFiles(dir_);
  const std::string victim = PayloadInodes(dir_).begin()->first;
  ASSERT_TRUE(fs::remove(dir_ / "artifacts" / victim));

  // Every artifact's digest is known; the missing file must still be noticed.
  ASSERT_TRUE(builder.SaveState(dir_.string(), 1));
  EXPECT_EQ(StateDirFiles(dir_), saved);
  std::string error;
  EXPECT_TRUE(LoadStateDir(dir_.string(), &error).has_value()) << error;
}

// Each state.publish step, failing on the edited payload's publish (nth:1) and on
// the manifest's (nth:2): the save reports failure and records no digest, a state
// directory still loads (the previous one, unless the manifest's rename had
// already committed), and the next fault-free save completes with full-save bytes.
TEST_F(StateDirTest, FailedIncrementalSaveLeavesALoadableStateAndNoDigest) {
  for (const char* step : {"open", "write", "fsync", "close", "rename", "dirsync"}) {
    for (int nth : {1, 2}) {
      SCOPED_TRACE(std::string(step) + " nth:" + std::to_string(nth));
      fs::remove_all(dir_);
      MapBuilder builder(MapBuilderOptions{.local = "hub"});
      ASSERT_TRUE(builder.Build(ThreeFiles(50)));
      ASSERT_TRUE(builder.SaveState(dir_.string(), 1));
      const uint64_t old_digest = builder.artifacts()[1].digest;

      builder.Update({ThreeFiles(55)[1]});
      ASSERT_FALSE(builder.artifacts()[1].payload_digest.has_value());
      ASSERT_TRUE(failpoint::Arm(std::string("state.publish.") + step,
                                 "nth:" + std::to_string(nth)));
      EXPECT_FALSE(builder.SaveState(dir_.string(), 2));
      failpoint::Reset();
      EXPECT_FALSE(builder.artifacts()[1].payload_digest.has_value());

      std::string error;
      auto loaded = LoadStateDir(dir_.string(), &error);
      ASSERT_TRUE(loaded.has_value()) << error;
      const bool committed = nth == 2 && std::string(step) == "dirsync";
      EXPECT_EQ(loaded->image_generation, committed ? 2u : 1u);
      EXPECT_EQ(loaded->artifacts[1].digest,
                committed ? builder.artifacts()[1].digest : old_digest);

      ASSERT_TRUE(builder.SaveState(dir_.string(), 2));
      EXPECT_TRUE(builder.artifacts()[1].payload_digest.has_value());
      EXPECT_EQ(StateDirFiles(dir_),
                FullSaveFiles(full_, HeaderOf(builder, 2), builder.artifacts()));
    }
  }
}

}  // namespace
}  // namespace incr
}  // namespace pathalias
