// Randomized-edit golden equivalence for the incremental pipeline.
//
// A seeded model of a multi-file map absorbs a few hundred random edits — recosts,
// host adds/removes/renames, link adds/removes, duplicate declarations, whole-file
// adds/removes, non-plain declarations the patch path must now absorb IN PLACE
// (aliases, dead hosts/links, adjust biases, gatewayed nets with gateways), and
// occasional net/private declarations that still force the replay-rebuild path.
// A seeded share of hosts is one-way (outbound links only) and stays unreachable by
// declared links, so the maps carry invented back links through every edit.
// After EVERY edit the MapBuilder's route set must be byte-identical (canonical
// name-sorted form) to a from-scratch pipeline over the edited inputs; periodically
// the refrozen .pari image and the sharded batch engine (serial and --threads) are
// held to the same standard.  After every edit the builder's incremental state
// save must leave the files a full save of the same artifacts writes, and every
// patched mapping must carry the aggregates a fresh Run computes (label list in
// node order, label and host counts, penalty tallies, unreachable hosts).  Four
// path-coverage assertions keep the property non-vacuous: the patch path, the
// fallback path, patched updates that applied alias/dead/gateway/adjust edits (if
// those all silently fell back, the lifted gates would be untested), and patched
// updates over a graph holding invented back links.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/baseline/scalar_resolve.h"
#include "src/core/pathalias.h"
#include "src/exec/batch_engine.h"
#include "src/exec/resolver.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/route_db/route_db.h"
#include "src/support/rng.h"
#include "tests/incr/state_dir_oracle.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;

struct LinkModel {
  std::string to;
  Cost cost;
};

struct HostModel {
  std::string name;
  std::vector<LinkModel> links;
};

struct FileModel {
  std::string name;
  std::vector<HostModel> hosts;
  std::vector<std::string> extra_lines;  // non-plain declarations (aliases, dead, ...)
};

struct MapModel {
  std::vector<FileModel> files;
  int next_host = 0;

  std::string NewHostName() { return "h" + std::to_string(next_host++); }

  std::vector<std::string> AllHostNames() const {
    std::vector<std::string> names;
    for (const FileModel& file : files) {
      for (const HostModel& host : file.hosts) {
        names.push_back(host.name);
      }
    }
    return names;
  }

  InputFile Render(const FileModel& file) const {
    std::string text;
    for (const HostModel& host : file.hosts) {
      text += host.name;
      if (!host.links.empty()) {
        text += '\t';
        for (size_t i = 0; i < host.links.size(); ++i) {
          if (i > 0) {
            text += ", ";
          }
          text += host.links[i].to + "(" + std::to_string(host.links[i].cost) + ")";
        }
      }
      text += '\n';
    }
    for (const std::string& line : file.extra_lines) {
      text += line + "\n";
    }
    return InputFile{file.name, text};
  }

  std::vector<InputFile> RenderAll() const {
    std::vector<InputFile> rendered;
    for (const FileModel& file : files) {
      rendered.push_back(Render(file));
    }
    return rendered;
  }
};

std::string ReferenceSortedRoutes(const std::vector<InputFile>& files,
                                  const std::string& local) {
  Diagnostics diag;
  RunOptions options;
  options.local = local;
  RunResult result = pathalias::Run(files, options, &diag);
  return RouteSet::FromEntries(result.routes).ToSortedText(/*include_costs=*/true);
}

// Resolves `queries` against an image and formats the outcomes; every way of
// building the image and every execution mode must produce these bytes identically.
std::string FormatBatch(const FrozenRouteSet& source,
                        const std::vector<std::string_view>& queries, int threads) {
  exec::BatchEngineOptions options;
  options.threads = threads;
  exec::BatchEngine engine(&source, options);
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);
  std::string out;
  for (size_t i = 0; i < queries.size(); ++i) {
    out += queries[i];
    if (results[i].route.ok()) {
      out += "\tvia=";
      out += source.names().View(results[i].via);
      out += "\troute=";
      out += results[i].route.route;
      out += results[i].suffix_match ? "\tsuffix" : "\texact";
    } else {
      out += "\t*miss*";
    }
    out += '\n';
  }
  return out;
}

std::vector<std::string> NamesOf(const Graph& graph, const std::vector<Node*>& nodes) {
  std::vector<std::string> names;
  for (const Node* node : nodes) {
    names.emplace_back(graph.NameOf(node));
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> LabeledNames(const Graph& graph) {
  std::vector<Node*> labeled;
  for (Node* node : graph.nodes()) {
    if (node->label[0] != nullptr) {
      labeled.push_back(node);
    }
  }
  return NamesOf(graph, labeled);
}

// The patch keeps Result's aggregates by touching only the nodes it remapped;
// a fresh Run over a replay of the same artifacts recomputes them from scratch.
void ExpectAggregatesOfAFreshRun(const MapBuilder& builder, int step) {
  Diagnostics diag;
  Graph fresh(&diag);
  for (const FileArtifact& artifact : builder.artifacts()) {
    ReplayArtifact(artifact, &fresh);
  }
  fresh.SetLocal(builder.local_name());
  MapOptions options;
  options.reuse_hash_table_storage = false;
  Mapper::Result run = Mapper(&fresh, options).Run();
  const Mapper::Result& patched = builder.map();
  const Graph& graph = *builder.graph();

  // The label list is in node order, one entry per labeled node.
  std::vector<PathLabel*> by_node;
  for (Node* node : graph.nodes()) {
    if (node->label[0] != nullptr) {
      by_node.push_back(node->label[0]);
    }
  }
  EXPECT_EQ(patched.labels, by_node) << "step " << step;
  EXPECT_EQ(patched.label_count, run.label_count) << "step " << step;
  EXPECT_EQ(patched.mapped_labels, run.mapped_labels) << "step " << step;
  EXPECT_EQ(LabeledNames(graph), LabeledNames(fresh)) << "step " << step;
  EXPECT_EQ(patched.mapped_hosts, run.mapped_hosts) << "step " << step;
  EXPECT_EQ(patched.unreachable_hosts, run.unreachable_hosts) << "step " << step;
  EXPECT_EQ(patched.mixed_syntax_routes, run.mixed_syntax_routes) << "step " << step;
  EXPECT_EQ(patched.syntax_penalized_routes, run.syntax_penalized_routes) << "step " << step;
  EXPECT_EQ(patched.penalized_routes, run.penalized_routes) << "step " << step;
  EXPECT_EQ(patched.invented_links, run.invented_links) << "step " << step;
  EXPECT_EQ(patched.back_link_passes, run.back_link_passes) << "step " << step;
  EXPECT_EQ(NamesOf(graph, patched.unreachable), NamesOf(fresh, run.unreachable))
      << "step " << step;
  EXPECT_TRUE(std::is_sorted(patched.unreachable.begin(), patched.unreachable.end(),
                             [](const Node* a, const Node* b) { return a->order < b->order; }))
      << "step " << step;
}

class IncrementalFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalFuzz, EveryEditStaysGoldenAcrossBackends) {
  Rng rng(GetParam());
  MapModel model;

  // --- seed topology: a connected multi-file map ---
  constexpr int kFiles = 6;
  constexpr int kInitialHosts = 42;
  for (int i = 0; i < kFiles; ++i) {
    model.files.push_back(FileModel{"site" + std::to_string(i) + ".map", {}, {}});
  }
  // One-way hosts declare outbound links only; the heal below leaves them
  // unreachable while one of those links reaches the mapped region, so a rebuild
  // invents a back link for each (paper §Back links).
  std::unordered_set<std::string> one_way;
  auto pick_one_way = [&] { return rng.Below(6) == 0; };
  std::vector<std::pair<int, int>> host_index;  // (file, host) of every declared host
  for (int i = 0; i < kInitialHosts; ++i) {
    std::string name = model.NewHostName();
    int file = static_cast<int>(rng.Below(kFiles));
    model.files[file].hosts.push_back(HostModel{name, {}});
    host_index.emplace_back(file, static_cast<int>(model.files[file].hosts.size()) - 1);
    if (i > 0) {
      // Attachment to a random earlier host keeps the map connected: two-way, or
      // one-way onto a two-way host.
      auto [pf, ph] = host_index[rng.Below(static_cast<uint64_t>(i))];
      HostModel& parent = model.files[pf].hosts[ph];
      Cost cost = static_cast<Cost>(10 + rng.Below(500));
      model.files[file].hosts.back().links.push_back(LinkModel{parent.name, cost});
      if (pick_one_way() && !one_way.contains(parent.name)) {
        one_way.insert(name);
      } else {
        parent.links.push_back(LinkModel{name, static_cast<Cost>(10 + rng.Below(500))});
      }
    }
  }
  const std::string local = "h0";

  MapBuilder builder(MapBuilderOptions{.local = local});
  ASSERT_TRUE(builder.Build(model.RenderAll()));
  ASSERT_EQ(builder.routes().ToSortedText(true),
            ReferenceSortedRoutes(model.RenderAll(), local));

  fs::path image_path =
      fs::temp_directory_path() /
      ("pathalias_incr_fuzz_" + std::to_string(::getpid()) + "_" +
       std::to_string(GetParam()) + ".pari");
  const fs::path state_dir = image_path.string() + ".state";
  const fs::path full_state_dir = image_path.string() + ".full-state";
  fs::remove_all(state_dir);

  size_t patched_updates = 0;
  size_t rebuild_updates = 0;
  size_t patched_alias_updates = 0;  // patched updates that applied non-plain edits
  size_t patched_back_link_updates = 0;  // patched updates over invented back links
  constexpr int kSteps = 140;
  for (int step = 0; step < kSteps; ++step) {
    std::vector<std::string> changed_names;  // model files to re-render
    std::vector<std::string> removed_names;
    auto touch = [&](const FileModel& file) {
      if (std::find(changed_names.begin(), changed_names.end(), file.name) ==
          changed_names.end()) {
        changed_names.push_back(file.name);
      }
    };
    auto random_file = [&]() -> FileModel& {
      return model.files[rng.Below(model.files.size())];
    };
    auto random_hosted_file = [&]() -> FileModel* {
      for (int attempt = 0; attempt < 16; ++attempt) {
        FileModel& file = random_file();
        if (!file.hosts.empty()) {
          return &file;
        }
      }
      return nullptr;
    };

    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {  // recost an existing link (the everyday edit)
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        HostModel& host = file->hosts[rng.Below(file->hosts.size())];
        if (host.links.empty()) {
          break;
        }
        host.links[rng.Below(host.links.size())].cost =
            static_cast<Cost>(1 + rng.Below(900));
        touch(*file);
        break;
      }
      case 3: {  // add a host (with a two-way or one-way attachment)
        FileModel* anchor_file = random_hosted_file();
        if (anchor_file == nullptr) {
          break;
        }
        // Index, not reference: pushing the new host may reallocate this very
        // file's hosts vector when target == anchor_file.
        size_t anchor_index = rng.Below(anchor_file->hosts.size());
        std::string anchor_name = anchor_file->hosts[anchor_index].name;
        std::string name = model.NewHostName();
        FileModel& target = random_file();
        target.hosts.push_back(HostModel{
            name, {LinkModel{anchor_name, static_cast<Cost>(5 + rng.Below(300))}}});
        touch(target);
        if (pick_one_way() && !one_way.contains(anchor_name)) {
          one_way.insert(name);
          break;
        }
        anchor_file->hosts[anchor_index].links.push_back(
            LinkModel{name, static_cast<Cost>(5 + rng.Below(300))});
        touch(*anchor_file);
        break;
      }
      case 4: {  // remove a host's declaration (sometimes scrubbing references too)
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        size_t index = rng.Below(file->hosts.size());
        std::string name = file->hosts[index].name;
        if (name == local) {
          break;
        }
        file->hosts.erase(file->hosts.begin() + static_cast<long>(index));
        touch(*file);
        if (rng.Below(2) == 0) {  // full scrub: the name disappears from the map
          for (FileModel& other : model.files) {
            for (HostModel& host : other.hosts) {
              size_t before = host.links.size();
              host.links.erase(std::remove_if(host.links.begin(), host.links.end(),
                                              [&](const LinkModel& link) {
                                                return link.to == name;
                                              }),
                               host.links.end());
              if (host.links.size() != before) {
                touch(other);
              }
            }
          }
        }
        break;
      }
      case 5: {  // rename a host everywhere
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        HostModel& host = file->hosts[rng.Below(file->hosts.size())];
        if (host.name == local) {
          break;
        }
        std::string from = host.name;
        std::string to = model.NewHostName();
        if (one_way.erase(from) > 0) {
          one_way.insert(to);
        }
        for (FileModel& other : model.files) {
          bool touched = false;
          for (HostModel& candidate : other.hosts) {
            if (candidate.name == from) {
              candidate.name = to;
              touched = true;
            }
            for (LinkModel& link : candidate.links) {
              if (link.to == from) {
                link.to = to;
                touched = true;
              }
            }
          }
          if (touched) {
            touch(other);
          }
        }
        break;
      }
      case 6: {  // add or remove a single link
        FileModel* file = random_hosted_file();
        if (file == nullptr) {
          break;
        }
        HostModel& host = file->hosts[rng.Below(file->hosts.size())];
        if (!host.links.empty() && rng.Below(2) == 0) {
          host.links.erase(host.links.begin() +
                           static_cast<long>(rng.Below(host.links.size())));
        } else {
          std::vector<std::string> names = model.AllHostNames();
          std::string target = names[rng.Below(names.size())];
          if (target == host.name) {
            break;
          }
          host.links.push_back(LinkModel{target, static_cast<Cost>(1 + rng.Below(900))});
        }
        touch(*file);
        break;
      }
      case 7: {  // duplicate declaration of an existing link in ANOTHER file
        std::vector<std::string> names = model.AllHostNames();
        if (names.size() < 2) {
          break;
        }
        FileModel& file = random_file();
        std::string from = names[rng.Below(names.size())];
        std::string to = names[rng.Below(names.size())];
        if (from == to) {
          break;
        }
        file.hosts.push_back(
            HostModel{from, {LinkModel{to, static_cast<Cost>(1 + rng.Below(900))}}});
        touch(file);
        break;
      }
      case 8: {  // non-plain declaration in, or out
        // Aliases, dead hosts/links, adjust biases, and gatewayed nets now take the
        // patch path; net and private declarations still force a replay.  Remove-
        // first keeps the replay-forcing episodes short (while a net/private decl
        // sits in the map, related edits rebuild) so neither path starves.
        FileModel* holder = nullptr;
        for (FileModel& file : model.files) {
          if (!file.extra_lines.empty()) {
            holder = &file;
            break;
          }
        }
        if (holder != nullptr) {
          holder->extra_lines.pop_back();
          touch(*holder);
        } else {
          std::vector<std::string> names = model.AllHostNames();
          if (names.size() < 2) {
            break;
          }
          FileModel& file = random_file();
          const std::string& subject = names[rng.Below(names.size())];
          const std::string& other = names[rng.Below(names.size())];
          switch (rng.Below(7)) {
            case 0:
              file.extra_lines.push_back(subject + " = nick" + std::to_string(step));
              break;
            case 1:
              file.extra_lines.push_back("dead {" + subject + "}");
              break;
            case 2:
              if (subject != other) {
                file.extra_lines.push_back("dead {" + subject + "!" + other + "}");
              }
              break;
            case 3:
              file.extra_lines.push_back("adjust {" + subject + "(" +
                                         std::to_string(5 + rng.Below(200)) + ")}");
              break;
            case 4:
              file.extra_lines.push_back("gatewayed {" + subject + "}\ngateway {" +
                                         subject + "!" + other + "}");
              break;
            case 5:  // net declarations still force the replay path
              if (subject != other) {
                file.extra_lines.push_back("fuzznet" + std::to_string(step) + " = {" +
                                           subject + ", " + other + "}(" +
                                           std::to_string(20 + rng.Below(200)) + ")");
              }
              break;
            default:  // private scoping still forces the replay path
              file.extra_lines.push_back("private {" + subject + "}");
              break;
          }
          touch(file);
        }
        break;
      }
      default: {  // add a new file, or drop a non-essential one
        if (model.files.size() > 3 && rng.Below(2) == 0) {
          size_t index = rng.Below(model.files.size());
          bool holds_local = false;
          for (const HostModel& host : model.files[index].hosts) {
            if (host.name == local) {
              holds_local = true;
            }
          }
          if (!holds_local) {
            removed_names.push_back(model.files[index].name);
            model.files.erase(model.files.begin() + static_cast<long>(index));
            break;
          }
        }
        std::vector<std::string> names = model.AllHostNames();
        if (names.empty()) {
          break;
        }
        FileModel fresh{"extra" + std::to_string(step) + ".map", {}, {}};
        std::string name = model.NewHostName();
        const std::string& anchor = names[rng.Below(names.size())];
        fresh.hosts.push_back(
            HostModel{name, {LinkModel{anchor, static_cast<Cost>(5 + rng.Below(300))}}});
        model.files.push_back(fresh);
        touch(model.files.back());
        break;
      }
    }

    // Heal: re-attach any declared host the edit disconnected, except one-way hosts
    // with a link straight into the reached region.  Those get one back-link pass;
    // a host reachable only through another unreachable host would need a second,
    // which the patch refuses, so it is healed too.
    {
      std::unordered_map<std::string, std::vector<std::string>> outgoing;
      std::vector<std::string> declared;
      for (const FileModel& file : model.files) {
        for (const HostModel& host : file.hosts) {
          declared.push_back(host.name);
          auto& targets = outgoing[host.name];
          for (const LinkModel& link : host.links) {
            targets.push_back(link.to);
          }
        }
      }
      std::unordered_set<std::string> reached;
      std::vector<std::string> frontier{local};
      reached.insert(local);
      auto expand = [&] {
        while (!frontier.empty()) {
          std::string current = std::move(frontier.back());
          frontier.pop_back();
          for (const std::string& target : outgoing[current]) {
            if (reached.insert(target).second) {
              frontier.push_back(target);
            }
          }
        }
      };
      expand();
      std::unordered_set<std::string> reached_by_declared = reached;
      for (const std::string& name : declared) {
        if (reached.contains(name)) {
          continue;
        }
        if (one_way.contains(name) &&
            std::any_of(outgoing[name].begin(), outgoing[name].end(),
                        [&](const std::string& target) {
                          return reached_by_declared.contains(target);
                        })) {
          continue;
        }
        for (FileModel& file : model.files) {  // graft onto the local host's decl
          for (HostModel& host : file.hosts) {
            if (host.name == local) {
              host.links.push_back(LinkModel{name, static_cast<Cost>(50 + rng.Below(200))});
              touch(file);
            }
          }
        }
        reached.insert(name);
        frontier.push_back(name);
        expand();
      }
    }

    std::vector<InputFile> changed;
    for (const std::string& name : changed_names) {
      for (const FileModel& file : model.files) {
        if (file.name == name) {
          changed.push_back(model.Render(file));
        }
      }
    }
    UpdateStats stats = builder.Update(changed, removed_names);
    (stats.patched ? patched_updates : rebuild_updates) += 1;
    if (stats.patched && (stats.alias_edits > 0 || stats.link_flag_edits > 0 ||
                          stats.host_state_edits > 0 || stats.region_has_aliases)) {
      ++patched_alias_updates;
    }
    // dirty_nodes > 0: Mapper::Patch ran (no-op updates return before it).
    if (stats.patched && stats.dirty_nodes > 0 && builder.graph()->invented_link_count() > 0) {
      ++patched_back_link_updates;
    }

    std::vector<InputFile> rendered = model.RenderAll();
    ASSERT_EQ(builder.routes().ToSortedText(true), ReferenceSortedRoutes(rendered, local))
        << "step " << step << " seed " << GetParam()
        << (stats.patched ? " (patched: " : " (rebuilt: ") << stats.rebuild_reason << ")";
    if (stats.patched && stats.dirty_nodes > 0) {
      ExpectAggregatesOfAFreshRun(builder, step);
    }

    // The incremental save serializes only what changed; its directory must still
    // be the one a full save writes.
    const uint64_t generation = static_cast<uint64_t>(step) + 1;
    ASSERT_TRUE(builder.SaveState(state_dir.string(), generation)) << "step " << step;
    StateDirHeader header;
    header.local = builder.options().local;
    header.image_generation = generation;
    ASSERT_EQ(StateDirFiles(state_dir), FullSaveFiles(full_state_dir, header, builder.artifacts()))
        << "step " << step << " seed " << GetParam();

    if (step % 20 == 19) {
      // Images built three ways (fresh run, patched builder, refrozen file) and
      // every execution mode must agree on a mixed query load.
      std::vector<std::string> names = model.AllHostNames();
      names.push_back("unknown-host");
      names.push_back("stranger.example");
      std::vector<std::string_view> queries(names.begin(), names.end());

      Diagnostics diag;
      RunOptions options;
      options.local = local;
      RunResult reference = pathalias::Run(rendered, options, &diag);
      FrozenImage reference_image =
          FrozenImage::Freeze(RouteSet::FromEntries(reference.routes));
      FrozenImage builder_image = FrozenImage::Freeze(builder.routes());

      std::string expected = FormatBatch(reference_image.routes(), queries, /*threads=*/1);
      EXPECT_EQ(FormatBatch(builder_image.routes(), queries, 1), expected) << "step " << step;
      EXPECT_EQ(FormatBatch(builder_image.routes(), queries, 4), expected) << "step " << step;

      // The pipelined batch loop must stay byte-identical to the scalar
      // reference over every evolving topology this fuzz produces, at a
      // degenerate, the default, and the maximum window.
      {
        Resolver resolver(&builder_image.routes(), ResolveOptions{});
        std::vector<BatchLookup> scalar(queries.size());
        size_t scalar_resolved = ResolveBatchScalar(resolver, queries, scalar);
        for (size_t window : {size_t{1}, Resolver::kDefaultPipelineWindow,
                              Resolver::kMaxPipelineWindow}) {
          std::vector<BatchLookup> pipelined(queries.size());
          ASSERT_EQ(resolver.ResolveBatchPipelined(queries, pipelined, window),
                    scalar_resolved)
              << "step " << step << " window " << window;
          for (size_t i = 0; i < queries.size(); ++i) {
            ASSERT_EQ(scalar[i].route.route.data(), pipelined[i].route.route.data())
                << "step " << step << " window " << window << " query " << queries[i];
            ASSERT_EQ(scalar[i].via, pipelined[i].via)
                << "step " << step << " window " << window << " query " << queries[i];
            ASSERT_EQ(scalar[i].suffix_match, pipelined[i].suffix_match)
                << "step " << step << " window " << window << " query " << queries[i];
          }
        }
      }

      ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path.string()));
      std::string error;
      auto frozen = FrozenImage::Open(image_path.string(),
                                      image::ImageView::Verify::kChecksum, &error);
      ASSERT_TRUE(frozen.has_value()) << error;
      EXPECT_EQ(FormatBatch(frozen->routes(), queries, 1), expected) << "step " << step;
      EXPECT_EQ(FormatBatch(frozen->routes(), queries, 4), expected) << "step " << step;
    }
  }

  // The property is vacuous if one of the paths never ran — and the lifted gates
  // are untested if every alias/dead/gateway/adjust edit silently fell back.
  EXPECT_GT(patched_updates, static_cast<size_t>(kSteps / 4))
      << "patch path barely exercised";
  EXPECT_GT(rebuild_updates, 0u) << "fallback path never exercised";
  EXPECT_GT(patched_alias_updates, 0u)
      << "no alias/dead/gateway/adjust edit took the patch path";
  EXPECT_GT(patched_back_link_updates, 0u)
      << "no patched update ran over a graph holding invented back links";
  fs::remove(image_path);
  fs::remove_all(state_dir);
  fs::remove_all(full_state_dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz,
                         ::testing::Values(1986u, 42u, 0xfeedfaceu, 7u));

}  // namespace
}  // namespace incr
}  // namespace pathalias
