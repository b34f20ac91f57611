// Zero-downtime rollover, observed from a client's chair.  The daemon is
// single-threaded and stepped with PollOnce, so these tests are deterministic:
// no sanitizer, no sleeps-as-synchronization — the linearizability claim (a
// reply acked after an update completes never carries the pre-update route) is
// checked by construction, request by request.

#include "src/net/rollover.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/net/daemon.h"
#include "src/net/wire.h"
#include "src/support/failpoint.h"

namespace pathalias {
namespace net {
namespace {

namespace fs = std::filesystem;

fs::path MakeScratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 ("rollover_" + std::to_string(::getpid()) + "_" + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void WriteFileAt(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFileAt(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Version A: leafc hangs off "far" → route "far!leafc!%s".
std::vector<InputFile> FilesA(const fs::path& dir) {
  return {
      {(dir / "core.map").string(), "hub\tmid(100), far(400)\n"},
      {(dir / "mid.map").string(), "mid\thub(100), leafa(50), leafb(60)\n"},
      {(dir / "far.map").string(), "far\thub(400), leafc(10)\nleafc\tfar(10)\n"},
  };
}

// Version B: leafc re-homed onto "mid" → route "mid!leafc!%s".  Same files, same
// names; only the leafc routing changes.
std::vector<InputFile> FilesB(const fs::path& dir) {
  return {
      {(dir / "core.map").string(), "hub\tmid(100), far(400)\n"},
      {(dir / "mid.map").string(),
       "mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n"},
      {(dir / "far.map").string(), "far\thub(400)\n"},
  };
}

void WriteMapFiles(const std::vector<InputFile>& files) {
  for (const InputFile& file : files) {
    WriteFileAt(file.name, file.content);
  }
}

void InitImage(const std::vector<InputFile>& files, const std::string& image_path) {
  WriteMapFiles(files);
  incr::MapBuilder builder(incr::MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path));
  incr::StateDirContents contents;
  contents.local = "hub";
  contents.ignore_case = false;
  contents.artifacts = builder.artifacts();
  ASSERT_TRUE(incr::SaveStateDir(image_path + ".state", contents));
}

class RolloverDaemonTest : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint::Reset(); }

  void StartDaemon(bool with_map_files, int watch_interval_ms) {
    dir_ = MakeScratchDir();
    image_path_ = (dir_ / "routes.pari").string();
    InitImage(FilesA(dir_), image_path_);

    DaemonOptions options;
    options.rollover.image_path = image_path_;
    if (with_map_files) {
      for (const InputFile& file : FilesA(dir_)) {
        options.rollover.map_files.push_back(file.name);
      }
    }
    options.rollover.engine.cache_entries = 1024;  // staleness must be possible
    options.unix_path = (dir_ / "d.sock").string();
    options.watch_interval_ms = watch_interval_ms;
    daemon_.emplace(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon_->Start(&error)) << error;

    auto socket = DatagramSocket::ClientForUnix((dir_ / "c.sock").string(), &error);
    ASSERT_TRUE(socket.has_value()) << error;
    client_ = std::move(*socket);
    server_ = DatagramSocket::UnixPeer(daemon_->unix_path());
    buffer_.resize(kMaxDatagramBytes);
  }

  // Sends one single-query request, runs one daemon turn, returns the reply.
  std::optional<DecodedReply> Ask(uint64_t id, std::string_view query) {
    std::string datagram;
    std::vector<std::string_view> queries = {query};
    if (!EncodeRequest(id, queries, &datagram)) {
      return std::nullopt;
    }
    bool dropped = false;
    std::string error;
    if (!client_.SendTo(datagram, server_, &dropped, &error)) {
      ADD_FAILURE() << "send failed: " << error;
      return std::nullopt;
    }
    daemon_->PollOnce(100);
    if (!client_.WaitReadable(2000)) {
      return std::nullopt;
    }
    PeerAddress from;
    bool got_one = false;
    ssize_t got = client_.Recv(buffer_.data(), buffer_.size(), &from, &got_one, &error);
    if (!got_one) {
      return std::nullopt;
    }
    DecodedReply reply;
    if (!DecodeReply(std::string_view(buffer_.data(), static_cast<size_t>(got)),
                     &reply, &error)) {
      ADD_FAILURE() << "undecodable reply: " << error;
      return std::nullopt;
    }
    return reply;
  }

  std::string RouteOf(uint64_t id, std::string_view query) {
    auto reply = Ask(id, query);
    if (!reply.has_value() || reply->results.size() != 1) {
      ADD_FAILURE() << "no reply for " << query;
      return "";
    }
    return std::string(reply->results[0].route);
  }

  fs::path dir_;
  std::string image_path_;
  std::optional<Daemon> daemon_;
  DatagramSocket client_;
  PeerAddress server_;
  std::vector<char> buffer_;
};

// Satellite: the deterministic (non-TSan) linearizability check.  A reply the
// client receives after the reload turn completes must carry the post-update
// route — even for a query whose answer sat warm in the result cache — while a
// retransmit of a pre-update request replays the pre-update bytes verbatim.
TEST_F(RolloverDaemonTest, HupReloadIsLinearizableForClients) {
  StartDaemon(/*with_map_files=*/true, /*watch_interval_ms=*/0);

  // Warm the answer: second ask with a fresh id is served from the result cache.
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s");

  WriteMapFiles(FilesB(dir_));
  daemon_->RequestReload();
  ASSERT_TRUE(daemon_->PollOnce(100));  // the reload turn

  EXPECT_EQ(daemon_->stats().reloads_attempted, 1u);
  EXPECT_EQ(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(daemon_->rollover().generation(), 1u);
  // Single-threaded loop: the swap turn itself drains, so the old mapping is
  // already unmapped — nothing lingers.
  EXPECT_EQ(daemon_->stats().images_retired, 1u);
  EXPECT_EQ(daemon_->rollover().pending_retirements(), 0u);

  // THE claim: acked-after-update replies never carry the pre-update route.
  EXPECT_EQ(RouteOf(3, "leafc"), "mid!leafc!%s");

  // ...while a retransmit of a request answered pre-update replays the original
  // answer bytes (at-most-once), flagged so the client can tell.
  auto replayed = Ask(1, "leafc");
  ASSERT_TRUE(replayed.has_value());
  EXPECT_NE(replayed->flags & kReplyFlagReplayed, 0);
  EXPECT_EQ(replayed->results[0].route, "far!leafc!%s");

  // Untouched routes kept serving throughout.
  EXPECT_EQ(RouteOf(4, "leafa"), "mid!leafa!%s");
}

TEST_F(RolloverDaemonTest, ReloadWithUnchangedFilesIsANoop) {
  StartDaemon(/*with_map_files=*/true, /*watch_interval_ms=*/0);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");

  daemon_->RequestReload();  // nothing on disk changed
  ASSERT_TRUE(daemon_->PollOnce(100));

  EXPECT_EQ(daemon_->stats().reloads_noop, 1u);
  EXPECT_EQ(daemon_->stats().reloads_applied, 0u);
  EXPECT_EQ(daemon_->rollover().generation(), 0u);
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s");
}

// Spins the loop until a rollover lands (watch cadence is 1ms) or the bound runs
// out.  Bounded retries, not a sleep: each turn does real work.
void SpinUntilGeneration(Daemon* daemon, uint64_t generation) {
  for (int i = 0; i < 2000 && daemon->rollover().generation() < generation; ++i) {
    daemon->PollOnce(5);
  }
  ASSERT_GE(daemon->rollover().generation(), generation);
}

// The changed-file-notification path: an EXTERNAL `routedb update` refreezes the
// image (rename), and the daemon — with no map files configured at all — picks
// it up from the watch, diffs per-id, and hot-swaps.
TEST_F(RolloverDaemonTest, WatchPicksUpExternalImageReplacement) {
  StartDaemon(/*with_map_files=*/false, /*watch_interval_ms=*/1);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s");  // warm the cache

  {  // What `routedb update` does, in process: load state, update, refreeze.
    std::string error;
    auto state = incr::LoadStateDir(image_path_ + ".state", &error);
    ASSERT_TRUE(state.has_value()) << error;
    incr::MapBuilder builder(
        incr::MapBuilderOptions{.local = state->local, .ignore_case = state->ignore_case});
    ASSERT_TRUE(builder.BuildFromArtifacts(std::move(state->artifacts)));
    WriteMapFiles(FilesB(dir_));
    std::vector<InputFile> changed;
    for (const InputFile& file : FilesB(dir_)) {
      changed.push_back({file.name, ReadFileAt(file.name)});
    }
    builder.Update(changed);
    ASSERT_TRUE(builder.valid());
    ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path_));
  }

  SpinUntilGeneration(&*daemon_, 1);
  EXPECT_GE(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(RouteOf(3, "leafc"), "mid!leafc!%s");
  EXPECT_EQ(RouteOf(4, "leafa"), "mid!leafa!%s");
}

// An image rebuilt from scratch by someone else (different interner id space)
// cannot hot-swap — the controller must fall back to a cold engine and keep
// answering correctly.
TEST_F(RolloverDaemonTest, WatchSurvivesIncompatibleImageRebuild) {
  StartDaemon(/*with_map_files=*/false, /*watch_interval_ms=*/1);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");
  exec::BatchEngine* old_engine = daemon_->engine();

  {  // A from-scratch build with a different name order: ids do not line up.
    std::vector<InputFile> files = {
        {(dir_ / "other.map").string(), "zzz\tleafc(10), leafa(20)\n"}};
    WriteMapFiles(files);
    incr::MapBuilder builder(incr::MapBuilderOptions{.local = "zzz"});
    ASSERT_TRUE(builder.Build(files));
    ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path_));
  }

  SpinUntilGeneration(&*daemon_, 1);
  EXPECT_NE(daemon_->engine(), old_engine) << "incompatible swap must rebuild cold";
  EXPECT_EQ(RouteOf(2, "leafc"), "leafc!%s");
  EXPECT_EQ(RouteOf(3, "hub"), "") << "the old world is gone";
}

// Graceful degradation: a refreeze that cannot be published (injected rename
// failure) must log an error, keep serving the OLD map, and succeed verbatim on
// the next reload once the fault clears.
TEST_F(RolloverDaemonTest, FailedRefreezeKeepsServingOldMapAndRetrySucceeds) {
  StartDaemon(/*with_map_files=*/true, /*watch_interval_ms=*/0);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");

  WriteMapFiles(FilesB(dir_));
  ASSERT_TRUE(support::failpoint::Arm("image.publish.rename", "always,errno:ENOSPC"));
  daemon_->RequestReload();
  ASSERT_TRUE(daemon_->PollOnce(100)) << "a failed reload must not stop the loop";

  EXPECT_EQ(daemon_->stats().reload_errors, 1u);
  EXPECT_EQ(daemon_->stats().reloads_applied, 0u);
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s") << "old map keeps serving";

  support::failpoint::Reset();
  daemon_->RequestReload();
  ASSERT_TRUE(daemon_->PollOnce(100));
  EXPECT_EQ(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(RouteOf(3, "leafc"), "mid!leafc!%s");
}

// Transient open failure on the watch path: the first tick's reopen fails, but
// the controller leaves its stat identity untouched, so the NEXT tick retries
// the same replacement and lands it — self-healing, no restart needed.
TEST_F(RolloverDaemonTest, WatchRetriesAfterTransientReopenFailure) {
  StartDaemon(/*with_map_files=*/false, /*watch_interval_ms=*/1);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");

  {  // External update, as in WatchPicksUpExternalImageReplacement.
    std::string error;
    auto state = incr::LoadStateDir(image_path_ + ".state", &error);
    ASSERT_TRUE(state.has_value()) << error;
    incr::MapBuilder builder(
        incr::MapBuilderOptions{.local = state->local, .ignore_case = state->ignore_case});
    ASSERT_TRUE(builder.BuildFromArtifacts(std::move(state->artifacts)));
    WriteMapFiles(FilesB(dir_));
    std::vector<InputFile> changed;
    for (const InputFile& file : FilesB(dir_)) {
      changed.push_back({file.name, ReadFileAt(file.name)});
    }
    builder.Update(changed);
    ASSERT_TRUE(builder.valid());
    ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path_));
  }

  ASSERT_TRUE(support::failpoint::Arm("rollover.reopen", "nth:1"));
  SpinUntilGeneration(&*daemon_, 1);  // tick 1 fails, tick 2 lands it
  EXPECT_EQ(support::failpoint::Fires("rollover.reopen"), 1u);
  EXPECT_GE(daemon_->stats().reload_errors, 1u);
  EXPECT_GE(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(RouteOf(2, "leafc"), "mid!leafc!%s");
}

// The torn-update refusal: a state dir stamped for a DIFFERENT image generation
// must not be adopted for incremental rebuilds (its artifact ids describe some
// other image) — the controller reports the mismatch and serves the old map.
TEST(RolloverController, RefusesStateStampedForADifferentImageGeneration) {
  fs::path dir = MakeScratchDir();
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = FilesA(dir);
  WriteMapFiles(files);
  incr::MapBuilder builder(incr::MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path, /*generation=*/5));
  incr::StateDirContents contents;
  contents.local = "hub";
  contents.ignore_case = false;
  contents.image_generation = 3;  // a state publish that never paired with this image
  contents.artifacts = builder.artifacts();
  ASSERT_TRUE(incr::SaveStateDir(image_path + ".state", contents));

  RolloverOptions options;
  options.image_path = image_path;
  for (const InputFile& file : files) {
    options.map_files.push_back(file.name);
  }
  RolloverController controller(options);
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  EXPECT_EQ(controller.image_generation(), 5u);

  WriteMapFiles(FilesB(dir));
  std::string detail;
  EXPECT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kError);
  EXPECT_NE(detail.find("generation mismatch"), std::string::npos) << detail;
  EXPECT_EQ(controller.generation(), 0u) << "no swap happened";
}

// RolloverController in isolation: stat-identity makes the watch free when the
// image is untouched.
TEST(RolloverController, CheckImageIsANoopWhenUntouched) {
  fs::path dir = MakeScratchDir();
  std::string image_path = (dir / "routes.pari").string();
  InitImage(FilesA(dir), image_path);

  RolloverOptions options;
  options.image_path = image_path;
  RolloverController controller(options);
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;

  std::string detail;
  EXPECT_EQ(controller.CheckImage(&detail), ReloadOutcome::kNoop);
  EXPECT_EQ(controller.generation(), 0u);
  EXPECT_EQ(controller.pending_retirements(), 0u);
}

TEST(RolloverController, ReloadWithoutMapFilesIsAnError) {
  fs::path dir = MakeScratchDir();
  std::string image_path = (dir / "routes.pari").string();
  InitImage(FilesA(dir), image_path);

  RolloverOptions options;
  options.image_path = image_path;  // map_files intentionally empty
  RolloverController controller(options);
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;

  std::string detail;
  EXPECT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kError);
  EXPECT_EQ(controller.generation(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace pathalias
