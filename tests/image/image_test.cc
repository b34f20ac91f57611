// The frozen route image: freeze → adopt/mmap → resolve must reproduce the RouteSet it
// was frozen from, and a damaged image must be rejected before anything trusts it.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "src/core/pathalias.h"
#include "src/exec/resolver.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_format.h"
#include "src/image/image_view.h"
#include "src/image/image_writer.h"
#include "src/route_db/route_db.h"
#include "src/support/failpoint.h"

namespace pathalias {
namespace {

namespace fs = std::filesystem;

// The paper's worked example (§Output): the map whose routes every layer reproduces
// byte-for-byte, which makes it the canonical equivalence fixture.
constexpr std::string_view kPaperInput = R"(unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
)";

RouteSet PaperRouteSet() {
  Diagnostics diag;
  RunOptions options;
  options.local = "unc";
  RunResult result = RunString(kPaperInput, options, &diag);
  RouteSet set = RouteSet::FromEntries(result.routes);
  // Domain keys exercise the suffix machinery the image must freeze faithfully.
  set.Add(".edu", "seismo!%s", 100);
  set.Add("caip.rutgers.edu", "seismo!caip.rutgers.edu!%s", 195);
  return set;
}

std::optional<image::ImageView> Adopt(const std::string& buffer,
                                      image::ImageView::Verify verify,
                                      std::string* error = nullptr) {
  return image::ImageView::Adopt(buffer, verify, error);
}

TEST(ImageWriter, FreezeProducesValidatedImage) {
  RouteSet routes = PaperRouteSet();
  std::string buffer = image::ImageWriter::Freeze(routes);
  std::string error;
  auto view = Adopt(buffer, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(view.has_value()) << error;
  EXPECT_EQ(view->route_count(), routes.size());
  EXPECT_EQ(view->name_count(), routes.names().size());
  EXPECT_EQ(view->header().file_size, buffer.size());
}

TEST(ImageWriter, FrozenSetMatchesLiveRouteByRoute) {
  RouteSet routes = PaperRouteSet();
  FrozenImage image = FrozenImage::Freeze(routes);
  const FrozenRouteSet& frozen = image.routes();

  ASSERT_EQ(frozen.size(), routes.size());
  for (uint32_t i = 0; i < routes.size(); ++i) {
    const Route& live = routes.routes()[i];
    RouteView image_route = frozen.RouteAt(i);
    EXPECT_EQ(image_route.name, live.name);
    EXPECT_EQ(image_route.route, live.route);
    EXPECT_EQ(image_route.cost, live.cost);
    EXPECT_EQ(frozen.NameOf(image_route), routes.NameOf(live));
  }
  // Interner equivalence: every id resolves to the same bytes, suffix chain included.
  for (NameId id = 0; id < routes.names().size(); ++id) {
    EXPECT_EQ(frozen.names().View(id), routes.names().View(id));
    EXPECT_EQ(frozen.names().Suffix(id), routes.names().Suffix(id));
    EXPECT_EQ(frozen.names().Find(routes.names().View(id)), id);
  }
}

TEST(ImageWriter, EmptyRouteSetFreezesAndMisses) {
  FrozenImage image = FrozenImage::Freeze(RouteSet());
  const FrozenRouteSet& frozen = image.routes();
  EXPECT_TRUE(frozen.empty());
  EXPECT_FALSE(frozen.FindRouteView("anything").ok());
  EXPECT_EQ(frozen.names().Find("anything"), kNoName);
}

TEST(ImageView, RejectsTruncatedImage) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  std::string error;
  for (size_t keep : {size_t{0}, size_t{16}, sizeof(image::ImageHeader),
                      buffer.size() / 2, buffer.size() - 1}) {
    EXPECT_FALSE(
        Adopt(buffer.substr(0, keep), image::ImageView::Verify::kStructure, &error).has_value())
        << "kept " << keep << " bytes";
  }
}

TEST(ImageView, RejectsBadMagicAndVersion) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  std::string error;

  std::string bad_magic = buffer;
  bad_magic[0] = 'X';
  EXPECT_FALSE(Adopt(bad_magic, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  std::string bad_version = buffer;
  image::ImageHeader header;
  std::memcpy(&header, bad_version.data(), sizeof(header));
  header.version = 999;
  std::memcpy(bad_version.data(), &header, sizeof(header));
  EXPECT_FALSE(Adopt(bad_version, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// Version 1 images carry an FNV-1a checksum: refused, with the commands that rebuild
// them, even on the structure-only open path that never reads the checksum.
TEST(ImageView, RejectsVersion1ImageWithTheFix) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  image::ImageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  ASSERT_EQ(header.version, 2u);
  header.version = 1;
  std::memcpy(buffer.data(), &header, sizeof(header));
  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("routedb freeze"), std::string::npos) << error;
  EXPECT_NE(error.find("routedb update --init"), std::string::npos) << error;
}

TEST(ImageView, RejectsForeignEndianImage) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  // Simulate reading a foreign-endian image: byte-swap the endian marker, as the whole
  // header would appear on an opposite-endian host.
  image::ImageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  header.endian = __builtin_bswap32(header.endian);
  std::memcpy(buffer.data(), &header, sizeof(header));
  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("endian"), std::string::npos) << error;
}

TEST(ImageView, ChecksumCatchesPayloadCorruption) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  // Flip one bit in the middle of the payload (name/route pool area).
  buffer[buffer.size() - 8] ^= 0x40;
  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kChecksum, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(ImageView, StructureCatchesCorruptedRecords) {
  RouteSet routes = PaperRouteSet();
  std::string pristine = image::ImageWriter::Freeze(routes);
  image::ImageHeader header;
  std::memcpy(&header, pristine.data(), sizeof(header));
  std::string error;

  {  // A by-name slot pointing past the route section.
    std::string corrupt = pristine;
    uint32_t bogus = header.route_count + 7;
    std::memcpy(corrupt.data() + header.by_name_offset, &bogus, sizeof(bogus));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // A route record keyed by an out-of-range NameId.
    std::string corrupt = pristine;
    image::FrozenRoute route;
    std::memcpy(&route, corrupt.data() + header.routes_offset, sizeof(route));
    route.name = header.name_count + 1;
    std::memcpy(corrupt.data() + header.routes_offset, &route, sizeof(route));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // A name entry escaping its pool.
    std::string corrupt = pristine;
    NameInterner::FrozenEntry entry;
    std::memcpy(&entry, corrupt.data() + header.names_offset, sizeof(entry));
    entry.bytes_offset = static_cast<uint32_t>(header.name_bytes_size);
    std::memcpy(corrupt.data() + header.names_offset, &entry, sizeof(entry));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // Header claims more bytes than the buffer holds.
    std::string corrupt = pristine;
    image::ImageHeader lying = header;
    lying.file_size += 4096;
    std::memcpy(corrupt.data(), &lying, sizeof(lying));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // Unknown header flag bits.
    std::string corrupt = pristine;
    image::ImageHeader lying = header;
    lying.flags |= 1u << 31;
    std::memcpy(corrupt.data(), &lying, sizeof(lying));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
    EXPECT_NE(error.find("flags"), std::string::npos) << error;
  }
  {  // A probe table with every slot filled must be rejected (an unterminated probe
     // loop would otherwise hang the resolver on any miss).
    std::string corrupt = pristine;
    for (uint64_t i = 0; i < header.table_capacity; ++i) {
      NameInterner::FrozenSlot slot;
      char* at = corrupt.data() + header.slots_offset + i * sizeof(slot);
      std::memcpy(&slot, at, sizeof(slot));
      if (slot.id == kNoName) {
        slot.id = 0;
        std::memcpy(at, &slot, sizeof(slot));
      }
    }
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
    EXPECT_NE(error.find("occupancy"), std::string::npos) << error;
  }
}

TEST(ImageView, ChecksumCoversTheHeader) {
  // Flipping a *valid* flag bit (fold_case) leaves the structure plausible but changes
  // lookup semantics; the checksum must still catch it because it covers the header.
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  image::ImageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  header.flags ^= image::kFlagFoldCase;
  std::memcpy(buffer.data(), &header, sizeof(header));
  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kChecksum, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

// The paper example's image, pinned: any change to the layout, the record order, the
// probe-table rebuild or the checksum changes these bytes, and must do so on purpose
// (with an image version bump).
TEST(ImageWriter, PaperExampleImageMatchesItsGolden) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  image::ImageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  EXPECT_EQ(header.file_size, 1005u);
  EXPECT_EQ(header.checksum, 0x0602d9f6b018cbe0ull);
  EXPECT_EQ(image::ImageChecksum(buffer), header.checksum);
}

TEST(FrozenImage, FileRoundTripThroughMmap) {
  RouteSet routes = PaperRouteSet();
  fs::path path = fs::temp_directory_path() /
                  ("pathalias_image_test_" + std::to_string(getpid()) + ".pari");
  ASSERT_TRUE(image::ImageWriter::WriteFile(routes, path.string()));

  std::string error;
  auto opened =
      FrozenImage::Open(path.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  EXPECT_EQ(opened->routes().size(), routes.size());

  Resolver resolver(&opened->routes(), ResolveOptions{});
  std::string_view matched;
  RouteView route = resolver.Lookup("blue.rutgers.edu", &matched);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(matched, ".edu");
  EXPECT_EQ(route.route, "seismo!%s");

  fs::remove(path);
}

TEST(FrozenImage, OpenRejectsMissingAndCorruptFiles) {
  std::string error;
  EXPECT_FALSE(FrozenImage::Open("/nonexistent/image.pari",
                                 image::ImageView::Verify::kStructure, &error)
                   .has_value());

  fs::path path = fs::temp_directory_path() /
                  ("pathalias_image_test_bad_" + std::to_string(getpid()) + ".pari");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a frozen route image";
  }
  EXPECT_FALSE(
      FrozenImage::Open(path.string(), image::ImageView::Verify::kStructure, &error)
          .has_value());
  fs::remove(path);
}

TEST(ImageWriter, GenerationStampRoundTripsThroughTheFile) {
  RouteSet routes = PaperRouteSet();
  fs::path path = fs::temp_directory_path() /
                  ("pathalias_image_gen_" + std::to_string(getpid()) + ".pari");
  ASSERT_TRUE(image::ImageWriter::WriteFile(routes, path.string(), /*generation=*/17));
  std::string error;
  auto opened =
      FrozenImage::Open(path.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  EXPECT_EQ(opened->view().header().generation, 17u);
  // An unstamped freeze reads back as generation 0.
  std::string unstamped = image::ImageWriter::Freeze(routes);
  auto view = Adopt(unstamped, image::ImageView::Verify::kChecksum);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->header().generation, 0u);
  fs::remove(path);
}

// Crash-safety regression (the historical bug was rename-without-fsync): an
// injected failure at ANY publish step must leave the previously published
// image fully intact and openable — never a short or torn file.
class ImagePublishFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("pathalias_image_fault_" + std::to_string(getpid()) + ".pari");
    fs::remove(path_);
    fs::remove(path_.string() + ".tmp");
    routes_ = PaperRouteSet();
    ASSERT_TRUE(image::ImageWriter::WriteFile(routes_, path_.string(), /*generation=*/1));
  }
  void TearDown() override {
    support::failpoint::Reset();
    fs::remove(path_);
    fs::remove(path_.string() + ".tmp");
  }

  void ExpectOldImageIntact() {
    std::string error;
    auto opened =
        FrozenImage::Open(path_.string(), image::ImageView::Verify::kChecksum, &error);
    ASSERT_TRUE(opened.has_value()) << error;
    EXPECT_EQ(opened->view().header().generation, 1u);
  }

  fs::path path_;
  RouteSet routes_;
};

TEST_F(ImagePublishFaultTest, FailedRenameNeverTearsThePublishedImage) {
  std::string error;
  ASSERT_TRUE(support::failpoint::Arm("image.publish.rename", "always,errno:EIO"));
  EXPECT_FALSE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error));
  EXPECT_FALSE(error.empty());
  support::failpoint::Reset();
  ExpectOldImageIntact();
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));  // torn temp is unlinked
}

TEST_F(ImagePublishFaultTest, ShortWriteNeverTearsThePublishedImage) {
  std::string error;
  // The .write site lands HALF the bytes then fails — the worst torn-write case.
  ASSERT_TRUE(support::failpoint::Arm("image.publish.write", "always,errno:ENOSPC"));
  EXPECT_FALSE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error));
  EXPECT_NE(error.find("No space"), std::string::npos) << error;
  support::failpoint::Reset();
  ExpectOldImageIntact();
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));
}

TEST_F(ImagePublishFaultTest, FailedFsyncNeverTearsThePublishedImage) {
  std::string error;
  ASSERT_TRUE(support::failpoint::Arm("image.publish.fsync", "always,errno:EIO"));
  EXPECT_FALSE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error));
  support::failpoint::Reset();
  ExpectOldImageIntact();
}

TEST_F(ImagePublishFaultTest, LeftoverTempJunkFromACrashIsOverwritten) {
  {
    std::ofstream junk(path_.string() + ".tmp", std::ios::binary);
    junk << "half-written image from a crashed publish";
  }
  std::string error;
  ASSERT_TRUE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error))
      << error;
  auto opened =
      FrozenImage::Open(path_.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  EXPECT_EQ(opened->view().header().generation, 2u);
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));
}

TEST_F(ImagePublishFaultTest, MmapFailureFallsBackToReadingTheWholeFile) {
  std::string error;
  ASSERT_TRUE(support::failpoint::Arm("image.mmap", "always"));
  auto opened =
      FrozenImage::Open(path_.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;  // read() fallback served the open
  EXPECT_EQ(opened->routes().size(), routes_.size());
}

TEST(FrozenInterner, AdoptedInternerIsReadOnly) {
  RouteSet routes = PaperRouteSet();
  std::string buffer = image::ImageWriter::Freeze(routes);
  auto view = Adopt(buffer, image::ImageView::Verify::kChecksum);
  ASSERT_TRUE(view.has_value());
  NameInterner frozen = NameInterner::AdoptFrozen(view->interner_view());
  EXPECT_TRUE(frozen.frozen());
  EXPECT_EQ(frozen.size(), routes.names().size());
  // Adopted lookups return views into the image buffer, not copies.
  NameId id = frozen.Find("phs");
  ASSERT_NE(id, kNoName);
  const char* bytes = frozen.View(id).data();
  EXPECT_GE(bytes, buffer.data());
  EXPECT_LT(bytes, buffer.data() + buffer.size());
}

}  // namespace
}  // namespace pathalias
