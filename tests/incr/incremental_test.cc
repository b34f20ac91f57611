// Unit tests for the incremental pipeline's pieces: artifact record/replay/serialize,
// per-node route building, RouteSet deltas, the MapBuilder's patch and fallback
// paths, and state-dir persistence.  The randomized-edit equivalence property lives
// in incremental_fuzz_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/core/pathalias.h"
#include "src/core/route_printer.h"
#include "src/incr/artifact.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/mapgen/mapgen.h"
#include "src/route_db/route_db.h"
#include "src/support/digest.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;

// The canonical form every equivalence check compares: what a from-scratch pipeline
// over `files` emits, as a name-sorted route list.
std::string ReferenceSortedRoutes(const std::vector<InputFile>& files,
                                  const std::string& local) {
  Diagnostics diag;
  RunOptions options;
  options.local = local;
  RunResult result = pathalias::Run(files, options, &diag);
  return RouteSet::FromEntries(result.routes).ToSortedText(/*include_costs=*/true);
}

std::string BuilderSortedRoutes(const MapBuilder& builder) {
  return builder.routes().ToSortedText(/*include_costs=*/true);
}

TEST(Artifact, RecordsEveryDeclarationKind) {
  InputFile file{"kitchen.map",
                 "alpha\tbeta(10), gamma(4), @delta\n"
                 "net = @{alpha, beta}(25)\n"
                 "alpha = omega\n"
                 "private {secret}\n"
                 "dead {beta, alpha!gamma}\n"
                 "delete {zombie}\n"
                 "adjust {alpha(+5)}\n"
                 "gatewayed {net}\n"
                 "gateway {net!alpha}\n"};
  Diagnostics diag;
  FileArtifact artifact = ParseFileToArtifact(file, &diag);
  EXPECT_EQ(artifact.file_name, "kitchen.map");
  EXPECT_EQ(artifact.digest, support::Digest(file.content));
  EXPECT_FALSE(artifact.plain_links);
  EXPECT_NE(artifact.first_host, kNoSymbol);
  EXPECT_EQ(artifact.Symbol(artifact.first_host), "alpha");

  size_t links = 0, nets = 0, aliases = 0, privates = 0, dead_hosts = 0, dead_links = 0,
         deletes = 0, adjusts = 0, gatewayed = 0, gateways = 0;
  for (const Op& op : artifact.ops) {
    switch (op.kind) {
      case OpKind::kLink: ++links; break;
      case OpKind::kNet: ++nets; break;
      case OpKind::kAlias: ++aliases; break;
      case OpKind::kPrivate: ++privates; break;
      case OpKind::kDeadHost: ++dead_hosts; break;
      case OpKind::kDeadLink: ++dead_links; break;
      case OpKind::kDelete: ++deletes; break;
      case OpKind::kAdjust: ++adjusts; break;
      case OpKind::kGatewayed: ++gatewayed; break;
      case OpKind::kGatewayLink: ++gateways; break;
      default: break;
    }
  }
  EXPECT_EQ(links, 3u);
  EXPECT_EQ(nets, 1u);
  EXPECT_EQ(aliases, 1u);
  EXPECT_EQ(privates, 1u);
  EXPECT_EQ(dead_hosts, 1u);
  EXPECT_EQ(dead_links, 1u);
  EXPECT_EQ(deletes, 1u);
  EXPECT_EQ(adjusts, 1u);
  EXPECT_EQ(gatewayed, 1u);
  EXPECT_EQ(gateways, 1u);
}

TEST(Artifact, SerializationRoundTrips) {
  InputFile file{"round.map",
                 "a\tb(10), c(HOURLY)\n"
                 "n = {a, b, c}(50)\n"
                 "private {p}\n"};
  Diagnostics diag;
  FileArtifact artifact = ParseFileToArtifact(file, &diag);
  std::string bytes = SerializeArtifact(artifact);
  std::optional<FileArtifact> loaded = DeserializeArtifact(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->file_name, artifact.file_name);
  EXPECT_EQ(loaded->digest, artifact.digest);
  EXPECT_EQ(loaded->symbols, artifact.symbols);
  EXPECT_EQ(loaded->net_members, artifact.net_members);
  EXPECT_EQ(loaded->first_host, artifact.first_host);
  EXPECT_EQ(loaded->plain_links, artifact.plain_links);
  ASSERT_EQ(loaded->ops.size(), artifact.ops.size());
  for (size_t i = 0; i < artifact.ops.size(); ++i) {
    EXPECT_EQ(loaded->ops[i].kind, artifact.ops[i].kind) << i;
    EXPECT_EQ(loaded->ops[i].a, artifact.ops[i].a) << i;
    EXPECT_EQ(loaded->ops[i].b, artifact.ops[i].b) << i;
    EXPECT_EQ(loaded->ops[i].cost, artifact.ops[i].cost) << i;
    EXPECT_EQ(loaded->ops[i].op, artifact.ops[i].op) << i;
    EXPECT_EQ(loaded->ops[i].right, artifact.ops[i].right) << i;
  }
  // Truncations must be rejected, never mis-read.
  for (size_t cut : {size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeArtifact(std::string_view(bytes).substr(0, cut)).has_value())
        << cut;
  }
}

// Replaying recorded artifacts must build the same routes a direct parse does —
// across the full declaration surface the synthetic generator exercises (nets,
// domains, aliases, private collisions, dead links).
TEST(Artifact, ReplayMatchesDirectParseOnGeneratedMap) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  std::string reference = ReferenceSortedRoutes(map.files, map.local);

  MapBuilder builder(MapBuilderOptions{.local = map.local});
  ASSERT_TRUE(builder.Build(map.files));
  EXPECT_EQ(BuilderSortedRoutes(builder), reference);
  EXPECT_FALSE(reference.empty());
}

TEST(RoutePrinter, BuildEntryForMatchesFullTraversal) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  Diagnostics diag;
  RunOptions options;
  options.local = map.local;
  RunResult result = pathalias::Run(map.files, options, &diag);

  RoutePrinter printer(result.map, PrintOptions{});
  std::vector<RouteEntry> full = printer.Build();
  ASSERT_FALSE(full.empty());
  size_t matched = 0;
  for (const RouteEntry& entry : full) {
    const PathLabel* label = entry.node->label[0] != nullptr && entry.node->label[0]->best
                                 ? entry.node->label[0]
                                 : entry.node->label[1];
    std::optional<RouteEntry> single = printer.BuildEntryFor(label);
    ASSERT_TRUE(single.has_value()) << entry.name;
    EXPECT_EQ(single->name, entry.name);
    EXPECT_EQ(single->route, entry.route);
    EXPECT_EQ(single->cost, entry.cost);
    ++matched;
  }
  EXPECT_EQ(matched, full.size());
}

TEST(RouteSet, ApplyDeltaUpsertsErasesAndReportsDirtyIds) {
  RouteSet set;
  set.Add("a", "a!%s", 10);
  set.Add("b", "b!%s", 20);
  set.Add("c", "c!%s", 30);

  std::vector<RouteUpsert> upserts;
  upserts.push_back({"b", "x!b!%s", 25});  // changed
  upserts.push_back({"a", "a!%s", 10});    // identical: must not be dirty
  upserts.push_back({"d", "d!%s", 40});    // new
  std::vector<std::string> erases = {"c", "ghost"};
  std::vector<NameId> dirty = set.ApplyDelta(upserts, erases);

  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.Find("b")->route, "x!b!%s");
  EXPECT_EQ(set.Find("b")->cost, 25);
  EXPECT_EQ(set.Find("a")->route, "a!%s");
  EXPECT_EQ(set.Find("d")->cost, 40);
  EXPECT_EQ(set.Find("c"), nullptr);

  std::vector<NameId> expected = {set.names().Find("b"), set.names().Find("c"),
                                  set.names().Find("d")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(dirty, expected);

  // Erased names keep their ids: re-adding dirties the same id.
  std::vector<RouteUpsert> readd;
  readd.push_back({"c", "via!c!%s", 31});
  std::vector<NameId> dirty2 = set.ApplyDelta(readd, {});
  ASSERT_EQ(dirty2.size(), 1u);
  EXPECT_EQ(dirty2[0], expected[1]);
}

class MapBuilderPatchTest : public ::testing::Test {
 protected:
  // A three-file map with an unambiguous tree and room to edit.
  std::vector<InputFile> Files(Cost far_cost) {
    return {
        {"core.map", "hub\tmid(100), far(" + std::to_string(far_cost) + ")\n"},
        {"mid.map", "mid\thub(100), leafa(50), leafb(60)\n"},
        {"far.map", "far\thub(400), leafc(10)\nleafc\tfar(10)\n"},
    };
  }

  void ExpectGolden(const MapBuilder& builder, const std::vector<InputFile>& files) {
    EXPECT_EQ(BuilderSortedRoutes(builder), ReferenceSortedRoutes(files, "hub"));
  }
};

TEST_F(MapBuilderPatchTest, RecostPatchesInPlace) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(Files(400)));
  ExpectGolden(builder, Files(400));

  std::vector<InputFile> edited = Files(200);
  UpdateStats stats = builder.Update({edited[0]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(stats.files_reparsed, 1u);
  EXPECT_GT(stats.dirty_nodes, 0u);
  ExpectGolden(builder, edited);

  // The dirty id list names exactly the changed routes.
  for (NameId id : builder.dirty_route_ids()) {
    EXPECT_NE(builder.routes().names().View(id), "");
  }
}

TEST_F(MapBuilderPatchTest, UnchangedDigestSkipsReparse) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(Files(400)));
  UpdateStats stats = builder.Update({Files(400)[0]});
  EXPECT_TRUE(stats.patched);
  EXPECT_EQ(stats.files_reparsed, 0u);
  EXPECT_EQ(stats.files_unchanged, 1u);
  EXPECT_EQ(stats.routes_changed, 0u);
}

TEST_F(MapBuilderPatchTest, AddAndRemoveHostsAndFiles) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // Add a new leaf with a return link: patchable.
  files[1].content = "mid\thub(100), leafa(50), leafb(60), leafd(70)\nleafd\tmid(70)\n";
  UpdateStats stats = builder.Update({files[1]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);

  // Remove it again: its node is orphaned and its route must vanish.
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\n";
  stats = builder.Update({files[1]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);

  // Add a whole new file, then remove it.
  InputFile extra{"extra.map", "mid\tleafe(5)\nleafe\tmid(5)\n"};
  files.push_back(extra);
  stats = builder.Update({extra});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);

  files.pop_back();
  stats = builder.Update({}, {"extra.map"});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, RenameHostPatches) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  files[2].content = "far\thub(400), leafz(10)\nleafz\tfar(10)\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, AliasEditsPatchInPlace) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // Adding an alias is an in-place patch: the nickname's route appears without a
  // replay, and the alias edge count surfaces in the stats.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\nfar = faraway\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(stats.alias_edits, 1u);
  EXPECT_TRUE(stats.region_has_aliases);
  ASSERT_NE(builder.routes().Find("faraway"), nullptr);
  EXPECT_EQ(builder.routes().Find("faraway")->route, builder.routes().Find("far")->route);
  ExpectGolden(builder, files);

  // A plain edit with the alias still in the graph also patches (the old blanket
  // alias gate) ...
  files[0].content = "hub\tmid(100), far(350)\n";
  stats = builder.Update({files[0]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);

  // ... and removing the alias patches the nickname's route away again.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\n";
  stats = builder.Update({files[2]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(stats.alias_edits, 1u);
  EXPECT_EQ(builder.routes().Find("faraway"), nullptr);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, KeywordDeclarationEditsPatchInPlace) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // dead {hub!far} penalizes the direct link; far re-routes through mid.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\ndead {hub!far}\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_GT(stats.link_flag_edits, 0u);
  ExpectGolden(builder, files);

  // dead {mid} (terminal host) penalizes relaying through mid.
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\ndead {mid}\n";
  stats = builder.Update({files[1]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_GT(stats.host_state_edits, 0u);
  ExpectGolden(builder, files);

  // adjust {far(75)} biases every path through far.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\nadjust {far(75)}\n";
  stats = builder.Update({files[2]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);

  // gatewayed {far} + gateway {far!hub}: entry anywhere but hub's link costs extra.
  files[2].content =
      "far\thub(400), leafc(10)\nleafc\tfar(10)\ngatewayed {far}\ngateway {far!hub}\n";
  stats = builder.Update({files[2]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);

  // delete {leafb} removes its route; undeleting restores it.  Both patch.
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\ndelete {leafb}\n";
  stats = builder.Update({files[1]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(builder.routes().Find("leafb"), nullptr);
  ExpectGolden(builder, files);
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\n";
  stats = builder.Update({files[1]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_NE(builder.routes().Find("leafb"), nullptr);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, CrossReferencedEditsWidenTheSeedSetInsteadOfRefusing) {
  // A dead {hub!far} declaration lives in a file that never changes; editing the
  // referenced link's cost in ANOTHER file used to force a replay ("changed link is
  // referenced by a dead/gateway declaration") and now recomputes the effective
  // state — cheaper cost, dead flag preserved — in place.
  std::vector<InputFile> files = Files(400);
  files.push_back({"marks.map", "dead {hub!far}\n"});
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));

  files[0].content = "hub\tmid(100), far(250)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, NetMembershipCoincidenceComputesTheCombinedWinner) {
  // wan = {mid, far}(80) declares member→net and net→member edges that take part
  // in duplicate resolution with plain links.  A plain edit on the coinciding
  // (mid, wan) pair used to force a replay and now recomputes the winner across
  // both declaration kinds.
  std::vector<InputFile> files = Files(400);
  files.push_back({"nets.map", "wan = {mid, far}(80)\n"});
  files.push_back({"extra.map", "mid\twan(200)\n"});  // loses to the net's 80
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));

  files.back().content = "mid\twan(40)\n";  // now beats the net's 80
  UpdateStats stats = builder.Update({files.back()});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);

  files.back().content = "mid\twan(120)\n";  // back under the net's winner
  stats = builder.Update({files.back()});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, NetAndPrivateChangedFilesStillFallBack) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\nlan = {far, leafc}(30)\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_FALSE(stats.patched);
  EXPECT_NE(stats.rebuild_reason.find("net or private"), std::string::npos)
      << stats.rebuild_reason;
  ExpectGolden(builder, files);

  files[1].content = "mid\thub(100), leafa(50), leafb(60)\nprivate {leafa}\n";
  stats = builder.Update({files[1]});
  EXPECT_FALSE(stats.patched);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, AliasChainsPatchAndSurviveUnrelatedEdits) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // A two-deep nickname chain lands in one patch; both nicknames route like far.
  files[2].content =
      "far\thub(400), leafc(10)\nleafc\tfar(10)\nfar = faraway\nfaraway = farther\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(stats.alias_edits, 2u);
  ASSERT_NE(builder.routes().Find("farther"), nullptr);
  EXPECT_EQ(builder.routes().Find("farther")->route, builder.routes().Find("far")->route);
  ExpectGolden(builder, files);

  // A plain recost in ANOTHER file, with the chain untouched in the graph and the
  // changed-file diff side empty of alias edits, still patches — the chain re-maps
  // inside the dirty region.
  files[0].content = "hub\tmid(100), far(120)\n";
  stats = builder.Update({files[0]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(stats.alias_edits, 0u);
  EXPECT_TRUE(stats.region_has_aliases);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, AmbiguousAliasTieFallsBackAndStaysGolden) {
  // nick is aliased to BOTH p1 and p2.  While p1 is strictly cheaper the alias
  // region patches fine; once the edit makes p1 and p2 tie at equal (cost, hops),
  // nick's parent depends on alias-warped pop order the patch cannot reconstruct,
  // so it must refuse — and the replay still lands on the golden output.
  std::vector<InputFile> files = {
      {"f0.map", "hub\tp1(10), p2(20)\n"},
      {"f1.map", "p1\thub(10)\np2\thub(20)\nnick = p1\nnick = p2\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));

  files[0].content = "hub\tp1(10), p2(10)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_FALSE(stats.patched);
  EXPECT_NE(stats.rebuild_reason.find("ambiguous alias tie"), std::string::npos)
      << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, UnreachableRegionForcesRebuild) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // leafc loses its only inbound path but keeps an outbound link: a rebuild invents
  // a back link, which the patch cannot do locally.
  files[2].content = "far\thub(400)\nleafc\tfar(10)\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_FALSE(stats.patched);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, RecostOverBackLinkedLeafPatches) {
  // leafc only calls out, so it is reached over a back link far invents for it.
  // Recosting far's inbound link moves far's label, so the patch must redo the
  // back-link pass; an edit elsewhere leaves leafc's route alone.
  std::vector<InputFile> files = {
      {"core.map", "hub\tmid(100), far(400)\n"},
      {"mid.map", "mid\thub(100), leafa(50), leafb(60)\n"},
      {"far.map", "far\thub(400)\nleafc\tfar(10)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.graph()->invented_link_count(), 1u);
  ASSERT_EQ(builder.routes().Find("leafc")->cost, 410);

  files[0].content = "hub\tmid(100), far(200)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(builder.graph()->invented_link_count(), 1u);
  EXPECT_EQ(builder.routes().Find("leafc")->cost, 210);
  ExpectGolden(builder, files);

  files[1].content = "mid\thub(100), leafa(70), leafb(60)\n";
  stats = builder.Update({files[1]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(stats.routes_changed, 1u);  // leafa only
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, DeclaredPathIntoBackLinkedHostRefuses) {
  // Once leafc gains a declared inbound link, a rebuild reaches it in the first
  // drain and invents nothing: the back links change, so the patch refuses.
  std::vector<InputFile> files = {
      {"core.map", "hub\tmid(100), far(400)\n"},
      {"mid.map", "mid\thub(100), leafa(50), leafb(60)\n"},
      {"far.map", "far\thub(400)\nleafc\tfar(10)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.graph()->invented_link_count(), 1u);

  files[1].content = "mid\thub(100), leafa(50), leafb(60), leafc(5)\n";
  UpdateStats stats = builder.Update({files[1]});
  EXPECT_FALSE(stats.patched);
  EXPECT_NE(stats.rebuild_reason.find("invented back links"), std::string::npos)
      << stats.rebuild_reason;
  ExpectGolden(builder, files);
  EXPECT_EQ(builder.graph()->invented_link_count(), 0u);

  // Back to one-way, then declare the very link far's back link stands in for.
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\n";
  stats = builder.Update({files[1]});
  ExpectGolden(builder, files);
  ASSERT_EQ(builder.graph()->invented_link_count(), 1u);
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\n";
  stats = builder.Update({files[2]});
  EXPECT_FALSE(stats.patched);
  EXPECT_NE(stats.rebuild_reason.find("invented as a back link"), std::string::npos)
      << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, TiedBackLinkCandidatesRefuse) {
  // leafc calls p1 and p2 at equal cost, and both sit at (10, 1): its two back-link
  // candidates tie, and a full run keeps the one whose source comes first in node
  // order, which a patched graph does not reproduce.
  std::vector<InputFile> files = {
      {"f0.map", "hub\tp1(10), p2(10)\n"},
      {"f1.map", "p1\thub(10)\np2\thub(10)\n"},
      {"f2.map", "leafc\tp2(20), p1(20)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.graph()->invented_link_count(), 2u);

  files[0].content = "hub\tp1(10), p2(10), p3(50)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_FALSE(stats.patched);
  EXPECT_NE(stats.rebuild_reason.find("tied invented-link candidates"), std::string::npos)
      << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, SecondBackLinkPassRefuses) {
  // leafc is back-linked from mid; leafd calls only ghost, which nothing reaches.
  // Once leafd also calls leafc, a full run needs a second back-link pass (leafd
  // reaches the map only through leafc), which the patch does not redo.
  std::vector<InputFile> files = {
      {"core.map", "hub\tmid(100)\nmid\thub(100)\n"},
      {"leaves.map", "leafc\tmid(10)\nleafd\tghost(10)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.map().back_link_passes, 1u);

  files[1].content = "leafc\tmid(10)\nleafd\tghost(10), leafc(10)\n";
  UpdateStats stats = builder.Update({files[1]});
  EXPECT_FALSE(stats.patched);
  EXPECT_NE(stats.rebuild_reason.find("second back-link pass"), std::string::npos)
      << stats.rebuild_reason;
  ExpectGolden(builder, files);
  ASSERT_EQ(builder.map().back_link_passes, 2u);

  files[0].content = "hub\tmid(80)\nmid\thub(100)\n";
  stats = builder.Update({files[0]});
  EXPECT_FALSE(stats.patched);
  EXPECT_NE(stats.rebuild_reason.find("more than one back-link pass"), std::string::npos)
      << stats.rebuild_reason;
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, DefaultLocalTracksFirstHost) {
  // No explicit local: the first declared host is the source, and an edit that
  // changes it forces a rebuild rooted at the new source.
  MapBuilder builder(MapBuilderOptions{});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));
  EXPECT_EQ(builder.local_name(), "hub");

  files[0].content = "newhub\tmid(100)\nmid\tnewhub(100)\nhub\tmid(100), far(400)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_FALSE(stats.patched);
  EXPECT_EQ(builder.local_name(), "newhub");
  EXPECT_EQ(BuilderSortedRoutes(builder), ReferenceSortedRoutes(files, "newhub"));
}

TEST_F(MapBuilderPatchTest, ImprovementReopensCleanRegion) {
  // y initially routes directly from hub (50); cheapening a's link to x makes the
  // path hub!a!x!y (25) win.  y is OUTSIDE the edit's dirty closure (not in x's old
  // subtree), so the patch must reopen it mid-drain — and its subtree with it.
  std::vector<InputFile> files = {
      {"f0.map", "hub\ta(10), y(50)\n"},
      {"f1.map", "a\thub(10), x(50)\n"},
      {"f2.map", "x\ta(50), y(10)\ny\thub(50), yleaf(5)\nyleaf\ty(5)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.routes().Find("y")->route, "y!%s");

  files[1].content = "a\thub(10), x(5)\n";
  UpdateStats stats = builder.Update({files[1]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(builder.routes().Find("y")->route, "a!x!y!%s");
  EXPECT_EQ(builder.routes().Find("yleaf")->route, "a!x!y!yleaf!%s");
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, EqualCostTieReopensToExtractionOrderWinner) {
  // p1 and p2 offer z identical (cost, hops); a full run routes z via p1 (p1 pops
  // first: equal cost and hops, smaller name).  Knock p1 out, then restore it: the
  // restoring patch relaxes z with an EQUAL candidate from p1, and must reopen z
  // because the full rebuild's tie-break elects p1 — byte-identity demands the
  // parent switch, not just the cost.
  std::vector<InputFile> files = {
      {"f0.map", "hub\tp1(10), p2(10)\n"},
      {"f1.map", "p1\thub(10), z(5)\np2\thub(10), z(5)\nz\tp1(5)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.routes().Find("z")->route, "p1!z!%s");

  files[0].content = "hub\tp1(30), p2(10)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(builder.routes().Find("z")->route, "p2!z!%s");
  ExpectGolden(builder, files);

  files[0].content = "hub\tp1(10), p2(10)\n";
  stats = builder.Update({files[0]});
  EXPECT_TRUE(stats.patched) << stats.rebuild_reason;
  EXPECT_EQ(builder.routes().Find("z")->route, "p1!z!%s");
  ExpectGolden(builder, files);
}

TEST(Artifact, StoredParseErrorsSurviveReuse) {
  InputFile broken{"broken.map", "hub\tleaf(10)\nbogus !!! line\n"};
  Diagnostics parse_diag;
  FileArtifact artifact = ParseFileToArtifact(broken, &parse_diag);
  EXPECT_EQ(parse_diag.error_count(), 1u);
  ASSERT_EQ(artifact.errors.size(), 1u);
  EXPECT_EQ(artifact.errors[0].line, 2u);

  // The errors ride through serialization, and a builder fed the pre-parsed
  // artifact (the digest-matched reuse path) reports them again: a still-broken
  // input must not decay into a silent success.
  std::optional<FileArtifact> loaded = DeserializeArtifact(SerializeArtifact(artifact));
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->errors.size(), 1u);
  EXPECT_EQ(loaded->errors[0].message, artifact.errors[0].message);

  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<FileArtifact> artifacts;
  artifacts.push_back(std::move(*loaded));
  ASSERT_TRUE(builder.BuildFromArtifacts(std::move(artifacts)));
  EXPECT_EQ(builder.diag().error_count(), 1u);

  size_t reparsed = 0;
  size_t reused = 0;
  MapBuilder again(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(again.BuildReusing({broken}, builder.artifacts(), &reparsed, &reused));
  EXPECT_EQ(reused, 1u);
  EXPECT_EQ(again.diag().error_count(), 1u);
}

TEST(StateDir, SaveLoadRoundTripAndRejection) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  MapBuilder builder(MapBuilderOptions{.local = map.local});
  ASSERT_TRUE(builder.Build(map.files));

  fs::path dir = fs::temp_directory_path() / ("pathalias_state_test_" +
                                              std::to_string(::getpid()));
  fs::remove_all(dir);
  StateDirContents contents;
  contents.local = builder.local_name();
  contents.ignore_case = false;
  contents.artifacts = builder.artifacts();
  ASSERT_TRUE(SaveStateDir(dir.string(), contents));

  std::string error;
  std::optional<StateDirContents> loaded = LoadStateDir(dir.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->local, map.local);
  ASSERT_EQ(loaded->artifacts.size(), builder.artifacts().size());

  // A builder restored from the state dir produces identical routes.
  MapBuilder restored(MapBuilderOptions{.local = loaded->local});
  ASSERT_TRUE(restored.BuildFromArtifacts(std::move(loaded->artifacts)));
  EXPECT_EQ(BuilderSortedRoutes(restored), BuilderSortedRoutes(builder));

  // Corruption is refused, not misread.
  {
    std::ofstream manifest(dir / "manifest", std::ios::trunc);
    manifest << "not a manifest\n";
  }
  EXPECT_FALSE(LoadStateDir(dir.string(), &error).has_value());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace incr
}  // namespace pathalias
