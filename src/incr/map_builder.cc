#include "src/incr/map_builder.h"

#include <algorithm>

#include "src/core/route_printer.h"
#include "src/support/digest.h"

namespace pathalias {
namespace incr {
namespace {

// (from, to) NameId pair packed for hashing; ids are 32-bit by construction.
uint64_t PairKey(NameId from, NameId to) {
  return (static_cast<uint64_t>(from) << 32) | static_cast<uint64_t>(to);
}

MapOptions IncrementalMapOptions() {
  MapOptions options;
  // The probe table must survive mapping: updates keep interning names into the
  // live graph, and Mapper::Patch's exactness proof requires the default
  // prefer_fewer_hops tie-break anyway (it is the default; spelled out because the
  // pipeline depends on it).
  options.reuse_hash_table_storage = false;
  options.prefer_fewer_hops = true;
  return options;
}

}  // namespace

MapBuilder::MapBuilder(MapBuilderOptions options) : options_(std::move(options)) {}

bool MapBuilder::Build(const std::vector<InputFile>& files) {
  std::vector<FileArtifact> artifacts;
  artifacts.reserve(files.size());
  for (const InputFile& file : files) {
    // Errors surface once, in BuildFromArtifacts (which also covers artifacts that
    // arrive pre-parsed from a state dir or a digest-matched reuse).
    artifacts.push_back(ParseFileToArtifact(file, nullptr));
  }
  return BuildFromArtifacts(std::move(artifacts));
}

bool MapBuilder::BuildReusing(const std::vector<InputFile>& files,
                              std::vector<FileArtifact> prior, size_t* files_reparsed,
                              size_t* files_reused) {
  std::unordered_map<std::string, size_t> prior_index;
  for (size_t i = 0; i < prior.size(); ++i) {
    prior_index[prior[i].file_name] = i;
  }
  size_t reparsed = 0;
  size_t reused = 0;
  std::vector<FileArtifact> merged;
  merged.reserve(files.size());
  for (const InputFile& file : files) {
    auto it = prior_index.find(file.name);
    if (it != prior_index.end() && prior[it->second].digest == support::Digest(file.content)) {
      merged.push_back(std::move(prior[it->second]));
      ++reused;
    } else {
      merged.push_back(ParseFileToArtifact(file, nullptr));  // reported below
      ++reparsed;
    }
  }
  if (files_reparsed != nullptr) {
    *files_reparsed = reparsed;
  }
  if (files_reused != nullptr) {
    *files_reused = reused;
  }
  return BuildFromArtifacts(std::move(merged));
}

bool MapBuilder::BuildFromArtifacts(std::vector<FileArtifact> artifacts) {
  artifacts_ = std::move(artifacts);
  symbol_ids_.assign(artifacts_.size(), {0, {}});
  // Stored parse errors re-surface every time an artifact set enters a builder: a
  // broken input stays broken (and the exit code stays non-zero) no matter how
  // many digest-matched runs reuse its artifact.
  for (const FileArtifact& artifact : artifacts_) {
    artifact.ReportStoredErrors(&diag_);
  }
  valid_ = FullRebuild();
  return valid_;
}

bool MapBuilder::SaveState(const std::string& dir, uint64_t image_generation) {
  StateDirHeader header;
  header.local = options_.local;
  header.ignore_case = options_.ignore_case;
  header.image_generation = image_generation;
  return SaveStateDir(dir, header, artifacts_);
}

std::string MapBuilder::ComputeLocalName() const {
  if (!options_.local.empty()) {
    return options_.local;
  }
  for (const FileArtifact& artifact : artifacts_) {
    if (artifact.first_host != kNoSymbol) {
      return std::string(artifact.Symbol(artifact.first_host));
    }
  }
  return std::string();
}

const std::vector<NameId>& MapBuilder::SymbolIds(size_t artifact_index) {
  auto& [generation, ids] = symbol_ids_[artifact_index];
  if (generation != graph_generation_ || ids.size() != artifacts_[artifact_index].symbols.size()) {
    const FileArtifact& artifact = artifacts_[artifact_index];
    ids.resize(artifact.symbols.size());
    for (size_t i = 0; i < artifact.symbols.size(); ++i) {
      ids[i] = graph_->InternName(artifact.symbols[i]);
    }
    generation = graph_generation_;
  }
  return ids;
}

bool MapBuilder::FullRebuild() {
  ++graph_generation_;
  retired_names_.clear();
  graph_ = std::make_unique<Graph>(&diag_, Graph::Options{.ignore_case = options_.ignore_case});
  for (const FileArtifact& artifact : artifacts_) {
    ReplayArtifact(artifact, graph_.get());
  }
  local_name_ = ComputeLocalName();
  if (local_name_.empty()) {
    diag_.Error(SourcePos{}, "no hosts declared and no local host named");
    map_ = Mapper::Result{};
    CommitFullEmission({});
    return false;
  }
  graph_->SetLocal(local_name_);

  Mapper mapper(graph_.get(), IncrementalMapOptions());
  map_ = mapper.Run();
  for (const Node* unreachable : map_.unreachable) {
    diag_.Warn(SourcePos{}, std::string(graph_->NameOf(unreachable)) + " is unreachable");
  }

  RoutePrinter printer(map_, PrintOptions{});
  CommitFullEmission(printer.Build());
  return true;
}

void MapBuilder::CommitFullEmission(const std::vector<RouteEntry>& entries) {
  // Reduce the emission to its effective content ("later adds replace earlier
  // ones", matching RouteSet::FromEntries) before diffing against the held set.
  std::unordered_map<std::string_view, size_t> last;  // name → index of winning entry
  for (size_t i = 0; i < entries.size(); ++i) {
    last[entries[i].name] = i;
  }
  std::vector<std::string> erases;
  for (const Route& route : routes_.routes()) {
    std::string_view name = routes_.NameOf(route);
    if (!last.contains(name)) {
      erases.emplace_back(name);
    }
  }
  std::vector<RouteUpsert> upserts;  // in emission order, one per winning entry
  for (size_t i = 0; i < entries.size(); ++i) {
    if (last[entries[i].name] == i) {
      upserts.push_back(RouteUpsert{entries[i].name, entries[i].route, entries[i].cost});
    }
  }
  dirty_route_ids_ = routes_.ApplyDelta(upserts, erases);

  emitted_by_order_.assign(graph_ != nullptr ? graph_->node_count() : 0, std::string());
  emitted_count_.clear();
  emitted_collision_ = false;
  for (const RouteEntry& entry : entries) {
    if (entry.node != nullptr) {
      emitted_by_order_[entry.node->order] = entry.name;
    }
    if (++emitted_count_[entry.name] > 1) {
      emitted_collision_ = true;
    }
  }
}

UpdateStats MapBuilder::Update(const std::vector<InputFile>& changed,
                               const std::vector<std::string>& removed) {
  UpdateStats stats;

  std::unordered_map<std::string, size_t> index_by_name;  // owned keys: artifacts_ moves
  for (size_t i = 0; i < artifacts_.size(); ++i) {
    index_by_name[artifacts_[i].file_name] = i;
  }

  // Merge: reparse real changes, note unchanged ones, blank out removals.  Old
  // artifacts are kept aside for the declaration diff.
  std::vector<size_t> changed_indices;
  std::vector<FileArtifact> old_artifacts;  // parallel to changed_indices
  for (const InputFile& file : changed) {
    auto it = index_by_name.find(file.name);
    if (it != index_by_name.end() &&
        artifacts_[it->second].digest == support::Digest(file.content)) {
      ++stats.files_unchanged;
      continue;
    }
    FileArtifact fresh = ParseFileToArtifact(file, &diag_);
    ++stats.files_reparsed;
    if (it != index_by_name.end()) {
      changed_indices.push_back(it->second);
      old_artifacts.push_back(std::move(artifacts_[it->second]));
      artifacts_[it->second] = std::move(fresh);
      symbol_ids_[it->second] = {0, {}};  // the cached resolution described the old file
    } else {
      changed_indices.push_back(artifacts_.size());
      old_artifacts.push_back(FileArtifact{});  // added file: empty old side
      artifacts_.push_back(std::move(fresh));
      symbol_ids_.emplace_back(0, std::vector<NameId>{});
      index_by_name[artifacts_.back().file_name] = artifacts_.size() - 1;
    }
  }
  std::vector<size_t> removed_indices;
  for (const std::string& name : removed) {
    auto it = index_by_name.find(name);
    if (it == index_by_name.end()) {
      continue;
    }
    changed_indices.push_back(it->second);
    old_artifacts.push_back(std::move(artifacts_[it->second]));
    FileArtifact blank;
    blank.file_name = name;  // keeps its slot until the diff commits, then dropped
    artifacts_[it->second] = std::move(blank);
    symbol_ids_[it->second] = {0, {}};
    removed_indices.push_back(it->second);
  }

  auto drop_removed_slots = [&] {
    if (removed_indices.empty()) {
      return;
    }
    std::sort(removed_indices.begin(), removed_indices.end());
    for (auto it = removed_indices.rbegin(); it != removed_indices.rend(); ++it) {
      artifacts_.erase(artifacts_.begin() + static_cast<long>(*it));
      symbol_ids_.erase(symbol_ids_.begin() + static_cast<long>(*it));
    }
  };

  if (changed_indices.empty()) {
    stats.patched = true;  // nothing to do is the cheapest patch of all
    dirty_route_ids_.clear();
    return stats;
  }

  std::string why;
  if (valid_ && TryPatch(changed_indices, old_artifacts, &stats, &why)) {
    stats.patched = true;
    drop_removed_slots();
    return stats;
  }

  stats.patched = false;
  stats.rebuild_reason = valid_ ? why : "no valid prior build";
  // An aborted patch may have counted edits it applied before refusing; the replay
  // recomputes everything, so the breakdown reports zero in-place work.
  stats.alias_edits = 0;
  stats.link_flag_edits = 0;
  stats.host_state_edits = 0;
  stats.region_has_aliases = false;
  drop_removed_slots();
  valid_ = FullRebuild();
  stats.routes_changed = dirty_route_ids_.size();
  return stats;
}

bool MapBuilder::TryPatch(const std::vector<size_t>& changed_indices,
                          const std::vector<FileArtifact>& old_artifacts, UpdateStats* stats,
                          std::string* why) {
  if (emitted_collision_) {
    *why = "display-name collision in current output";
    return false;
  }
  // Patching never changes the Dijkstra source; a default-local drift means the
  // rebuilt pipeline would root the tree elsewhere.
  if (ComputeLocalName() != local_name_) {
    *why = "default local host changed";
    return false;
  }
  // Nets and private scoping are the declaration forms the diff still cannot patch:
  // net membership edges interleave with plain links under replay-order duplicate
  // resolution AND mint placeholder topology, and private names make NameId-keyed
  // diffing ambiguous.  Everything else — links, aliases, and the keyword
  // declarations — diffs below.
  constexpr uint32_t kUndiffable = (1u << static_cast<uint8_t>(OpKind::kNet)) |
                                   (1u << static_cast<uint8_t>(OpKind::kPrivate));
  for (size_t i = 0; i < changed_indices.size(); ++i) {
    if (((old_artifacts[i].kind_mask | artifacts_[changed_indices[i]].kind_mask) &
         kUndiffable) != 0) {
      *why = "changed file declares a net or private names";
      return false;
    }
  }

  // --- declaration diff (all by NameId against the live interner) ---
  //
  // Link-affecting declarations are tagged with their file slot and kept in order:
  // at equal minimum cost the global winner is the FIRST declaration in file order,
  // dead {a!b} only latches onto a link already declared, and gateway {net!host}
  // creates the link at zero cost only when nothing declared it yet — so a
  // declaration migrating or reordering between changed files is a change even when
  // the concatenated values match.  Host-state declarations (dead/delete/adjust/
  // gatewayed/gateway) and alias pairs are order-independent, so those diff as
  // per-side aggregates.
  struct PairDecl {
    uint8_t kind;   // 0 = link declaration, 1 = dead {a!b}, 2 = gateway {net!host}
    LinkDecl link;  // meaningful for kind 0 only
    bool operator==(const PairDecl&) const = default;
  };
  struct DeclList {
    std::vector<std::pair<uint32_t, PairDecl>> old_decls;
    std::vector<std::pair<uint32_t, PairDecl>> new_decls;
  };
  struct HostDiff {
    HostState old_state;
    HostState new_state;
  };
  std::unordered_map<uint64_t, DeclList> touched;  // pair → this-file declaration lists
  std::unordered_map<NameId, HostDiff> touched_hosts;
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>>
      touched_aliases;  // unordered pair → (old, new) declaration counts
  std::unordered_set<NameId> old_mentions;
  std::unordered_set<NameId> new_mentions;

  auto resolve = [&](const FileArtifact& artifact) {
    std::vector<NameId> ids(artifact.symbols.size());
    for (size_t i = 0; i < artifact.symbols.size(); ++i) {
      ids[i] = graph_->InternName(artifact.symbols[i]);
    }
    return ids;
  };
  auto collect = [&](const FileArtifact& artifact, const std::vector<NameId>& ids,
                     uint32_t file_slot, bool old_side) {
    auto pair_decl = [&](NameId from, NameId to, PairDecl decl) {
      DeclList& list = touched[PairKey(from, to)];
      (old_side ? list.old_decls : list.new_decls).emplace_back(file_slot, decl);
    };
    auto host_state = [&](NameId id) -> HostState& {
      HostDiff& diff = touched_hosts[id];
      return old_side ? diff.old_state : diff.new_state;
    };
    for (const Op& op : artifact.ops) {
      switch (op.kind) {
        case OpKind::kIntern:
          (old_side ? old_mentions : new_mentions).insert(ids[op.a]);
          break;
        case OpKind::kLink:
          if (ids[op.a] != ids[op.b]) {  // self links are rejected at graph level
            pair_decl(ids[op.a], ids[op.b],
                      PairDecl{0, LinkDecl{op.cost, op.op, op.right != 0}});
          }
          break;
        case OpKind::kDeadLink:
          if (ids[op.a] != ids[op.b]) {
            pair_decl(ids[op.a], ids[op.b], PairDecl{1, LinkDecl{0, kDefaultOp, false}});
          }
          break;
        case OpKind::kGatewayLink: {
          // gateway {net!host} flags (or creates) the host→net link and marks the
          // net gatewayed with explicit gateways.
          NameId net = ids[op.a];
          NameId gateway = ids[op.b];
          if (net != gateway) {
            pair_decl(gateway, net, PairDecl{2, LinkDecl{0, kDefaultOp, false}});
          }
          HostState& host = host_state(net);
          host.gatewayed = true;
          host.explicit_gateways = true;
          break;
        }
        case OpKind::kDeadHost:
          host_state(ids[op.a]).dead = true;
          break;
        case OpKind::kDelete:
          host_state(ids[op.a]).deleted = true;
          break;
        case OpKind::kAdjust:
          host_state(ids[op.a]).adjust += op.cost;
          break;
        case OpKind::kGatewayed:
          host_state(ids[op.a]).gatewayed = true;
          break;
        case OpKind::kAlias: {
          NameId a = ids[op.a];
          NameId b = ids[op.b];
          if (a != b) {  // self aliases are rejected at graph level
            auto& counts = touched_aliases[PairKey(std::min(a, b), std::max(a, b))];
            (old_side ? counts.first : counts.second) += 1;
          }
          break;
        }
        default:
          break;  // kHostDecl has no graph state; kNet/kPrivate were gated out above
      }
    }
  };
  for (size_t i = 0; i < changed_indices.size(); ++i) {
    uint32_t slot = static_cast<uint32_t>(changed_indices[i]);
    std::vector<NameId> old_ids = resolve(old_artifacts[i]);
    collect(old_artifacts[i], old_ids, slot, /*old_side=*/true);
    const FileArtifact& fresh = artifacts_[changed_indices[i]];
    std::vector<NameId> new_ids = resolve(fresh);
    collect(fresh, new_ids, slot, /*old_side=*/false);
  }
  // Drop pairs whose per-file declaration sequence is unchanged (their global winner
  // cannot have moved), hosts whose per-side aggregates match (order-independent
  // state), and alias pairs declared on both sides (presence is the whole state).
  for (auto it = touched.begin(); it != touched.end();) {
    it = it->second.old_decls == it->second.new_decls ? touched.erase(it) : std::next(it);
  }
  for (auto it = touched_hosts.begin(); it != touched_hosts.end();) {
    it = it->second.old_state == it->second.new_state ? touched_hosts.erase(it)
                                                      : std::next(it);
  }
  for (auto it = touched_aliases.begin(); it != touched_aliases.end();) {
    it = (it->second.first > 0) == (it->second.second > 0) ? touched_aliases.erase(it)
                                                           : std::next(it);
  }

  // Shadowed (private) names make name-keyed diffing ambiguous — two nodes answer
  // to the same NameId depending on file scope.
  auto pair_shadowed = [&](uint64_t key) {
    return graph_->HasShadowedName(static_cast<NameId>(key >> 32)) ||
           graph_->HasShadowedName(static_cast<NameId>(key & 0xffffffffu));
  };
  for (const auto& [key, lists] : touched) {
    if (pair_shadowed(key)) {
      *why = "changed link touches a shadowed (private) name";
      return false;
    }
  }
  for (const auto& [id, diff] : touched_hosts) {
    if (graph_->HasShadowedName(id)) {
      *why = "changed declaration touches a shadowed (private) name";
      return false;
    }
  }
  for (const auto& [key, counts] : touched_aliases) {
    if (pair_shadowed(key)) {
      *why = "changed alias touches a shadowed (private) name";
      return false;
    }
  }

  // --- global scan: effective winners for touched pairs, effective host states,
  // alias presence, and reference counts for orphan candidates.  Cross-references
  // that used to gate the patch (dead/gateway/net declarations elsewhere touching a
  // changed pair) are folded into the winner state machines instead: the scan walks
  // every artifact in file order, so ordering-sensitive semantics (dead only
  // latches a declared link, gateway creates one only when absent, cheapest-first-
  // at-min wins) reproduce replay exactly. ---
  std::unordered_set<NameId> orphan_candidates;
  for (NameId id : old_mentions) {
    if (!new_mentions.contains(id)) {
      orphan_candidates.insert(id);
    }
  }
  std::unordered_map<uint64_t, PairState> winners;
  winners.reserve(touched.size());
  for (const auto& [key, lists] : touched) {
    winners.emplace(key, PairState{});
  }
  std::unordered_map<NameId, HostState> host_winners;
  host_winners.reserve(touched_hosts.size());
  for (const auto& [id, diff] : touched_hosts) {
    host_winners.emplace(id, HostState{});
  }
  std::unordered_set<uint64_t> alias_present;  // touched alias pairs declared anywhere
  std::unordered_set<NameId> still_referenced;
  const size_t artifact_count = artifacts_.size();
  for (size_t index = 0; index < artifact_count; ++index) {
    const FileArtifact& artifact = artifacts_[index];
    if (artifact.ops.empty()) {
      continue;
    }
    const std::vector<NameId>& ids = SymbolIds(index);
    auto link_candidate = [&](NameId from, NameId to, Cost cost, char op_char, bool right,
                              bool net_member) {
      auto it = winners.find(PairKey(from, to));
      if (it == winners.end()) {
        return;
      }
      if (cost < 0) {
        cost = 0;  // AddLink clamps; the winner must too
      }
      PairState& state = it->second;
      if (!state.present || cost < state.winner.cost) {
        state.present = true;
        state.winner = LinkDecl{cost, op_char, right};
      }
      if (net_member) {
        state.net_member = true;  // flags accrete even on a losing duplicate
      }
    };
    auto touched_host = [&](NameId id) -> HostState* {
      auto it = host_winners.find(id);
      return it == host_winners.end() ? nullptr : &it->second;
    };
    for (const Op& op : artifact.ops) {
      switch (op.kind) {
        case OpKind::kIntern:
        case OpKind::kPrivate:
          if (orphan_candidates.contains(ids[op.a])) {
            still_referenced.insert(ids[op.a]);
          }
          break;
        case OpKind::kLink:
          link_candidate(ids[op.a], ids[op.b], op.cost, op.op, op.right != 0,
                         /*net_member=*/false);
          break;
        case OpKind::kDeadLink: {
          // dead {a!b} latches onto the a→b link only if something declared it
          // before this point (MarkDeadLink warns and ignores otherwise).
          auto it = winners.find(PairKey(ids[op.a], ids[op.b]));
          if (it != winners.end() && it->second.present) {
            it->second.dead = true;
          }
          break;
        }
        case OpKind::kGatewayLink: {
          // gateway {net!host} flags the host→net link, creating it at zero cost if
          // nothing declared it yet, and marks the net gatewayed with explicit
          // gateways.
          NameId net = ids[op.a];
          NameId gateway = ids[op.b];
          if (net != gateway) {
            auto it = winners.find(PairKey(gateway, net));
            if (it != winners.end()) {
              PairState& state = it->second;
              if (!state.present) {
                state.present = true;
                state.winner = LinkDecl{0, kDefaultOp, false};
              }
              state.gateway = true;
            }
          }
          if (HostState* host = touched_host(net)) {
            host->gatewayed = true;
            host->explicit_gateways = true;
          }
          break;
        }
        case OpKind::kDeadHost:
          if (HostState* host = touched_host(ids[op.a])) {
            host->dead = true;
          }
          break;
        case OpKind::kDelete:
          if (HostState* host = touched_host(ids[op.a])) {
            host->deleted = true;
          }
          break;
        case OpKind::kAdjust:
          if (HostState* host = touched_host(ids[op.a])) {
            host->adjust += op.cost;
          }
          break;
        case OpKind::kGatewayed:
          if (HostState* host = touched_host(ids[op.a])) {
            host->gatewayed = true;
          }
          break;
        case OpKind::kAlias:
          if (ids[op.a] != ids[op.b]) {
            uint64_t key = PairKey(std::min(ids[op.a], ids[op.b]),
                                   std::max(ids[op.a], ids[op.b]));
            if (touched_aliases.contains(key)) {
              alias_present.insert(key);
            }
          }
          break;
        case OpKind::kNet: {
          // A net declaration's generated edges (member→net at cost, net→member at
          // zero with the net-member flag) take part in duplicate resolution like
          // any plain link, so they feed the winner machine for touched pairs.
          NameId net = ids[op.a];
          for (uint32_t m = 0; m < op.member_count; ++m) {
            NameId member = ids[artifact.net_members[op.member_offset + m]];
            if (member != net) {
              link_candidate(member, net, op.cost, op.op, op.right != 0,
                             /*net_member=*/false);
              link_candidate(net, member, 0, op.op, op.right != 0, /*net_member=*/true);
            }
            if (orphan_candidates.contains(member)) {
              still_referenced.insert(member);
            }
          }
          if (orphan_candidates.contains(net)) {
            still_referenced.insert(net);
          }
          break;
        }
        default:
          // kHostDecl follows a kIntern for the same name in the same artifact, so
          // the mention accounting above covers it.
          break;
      }
    }
  }

  std::vector<NameId> orphans;
  for (NameId id : orphan_candidates) {
    if (!still_referenced.contains(id)) {
      orphans.push_back(id);
    }
  }
  std::sort(orphans.begin(), orphans.end());
  for (NameId id : orphans) {
    if (graph_->HasShadowedName(id)) {
      *why = "orphaned name is shadowed (private)";
      return false;
    }
  }

  // --- apply the graph delta and collect mapper seeds ---
  std::vector<Node*> seeds;
  std::unordered_set<const Node*> seeded;
  auto seed = [&](Node* node) {
    if (node != nullptr && seeded.insert(node).second) {
      seeds.push_back(node);
    }
  };
  auto intern_node = [&](NameId id) {
    Node* node = graph_->Intern(id);
    if (retired_names_.erase(id) > 0) {
      graph_->ReviveNode(node);
      seed(node);
    }
    return node;
  };
  // Hash-map iteration orders node creation; sort the keys so new-node creation
  // order (and with it every order-keyed structure) is reproducible run to run.
  auto sorted_keys = [](const auto& map) {
    std::vector<typename std::decay_t<decltype(map)>::key_type> keys;
    keys.reserve(map.size());
    for (const auto& [key, value] : map) {
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  constexpr uint32_t kLinkDeclFlags = kLinkDead | kLinkGateway | kLinkNetMember;
  for (uint64_t key : sorted_keys(winners)) {
    const PairState& state = winners[key];
    NameId from_id = static_cast<NameId>(key >> 32);
    NameId to_id = static_cast<NameId>(key & 0xffffffffu);
    Node* from = intern_node(from_id);
    Node* to = intern_node(to_id);
    Link* existing = graph_->FindLink(from, to);
    if (existing != nullptr && existing->invented()) {
      // The mapper owns invented back links.  A declaration landing on one gives the
      // back-linked host a declared inbound path, which changes the back links.
      if (state.present) {
        *why = "edit declares a link the mapper invented as a back link";
        return false;
      }
      continue;  // declared neither before nor now (e.g. an ignored dead {a!b})
    }
    uint32_t decl_flags = (state.dead ? kLinkDead : 0u) |
                          (state.gateway ? kLinkGateway : 0u) |
                          (state.net_member ? kLinkNetMember : 0u);
    bool changed_state;
    bool flags_changed = false;
    if (!state.present) {
      changed_state = graph_->RemoveLink(from, to);
    } else if (existing == nullptr) {
      changed_state = graph_->SetLinkState(from, to, state.winner.cost, state.winner.op,
                                           state.winner.right, decl_flags) != nullptr;
      flags_changed = decl_flags != 0;
    } else {
      flags_changed = (existing->flags & kLinkDeclFlags) != decl_flags;
      changed_state = existing->cost != state.winner.cost || existing->op != state.winner.op ||
                      existing->right_syntax() != state.winner.right || flags_changed;
      if (changed_state) {
        graph_->SetLinkState(from, to, state.winner.cost, state.winner.op, state.winner.right,
                             decl_flags);
      }
    }
    if (changed_state) {
      if (flags_changed) {
        ++stats->link_flag_edits;
      }
      // A link INTO the local host never participates in a route: no candidate can
      // beat the root label's cost 0, so the edit is output-invisible and seeding
      // the root (which the mapper rightly refuses) would force a pointless rebuild.
      if (to != graph_->local()) {
        seed(to);
      }
      // A node with no label yet (new, revived, or unreachable) must enter the dirty
      // region: the drain maps it, or the mapper's back-link phase accounts for it.
      if (from->label[0] == nullptr) {
        seed(from);
      }
    }
  }

  constexpr uint32_t kHostDeclFlags =
      kNodeTerminal | kNodeDeleted | kNodeGatewayed | kNodeExplicitGateways;
  for (NameId id : sorted_keys(host_winners)) {
    const HostState& state = host_winners[id];
    Node* node = intern_node(id);
    if (node == graph_->local() && state.deleted) {
      *why = "local host deleted";
      return false;
    }
    // Domains are born gatewayed (CreateNode/ReviveNode), independent of decls.
    uint32_t flags = (state.dead ? kNodeTerminal : 0u) | (state.deleted ? kNodeDeleted : 0u) |
                     ((state.gatewayed || node->domain()) ? kNodeGatewayed : 0u) |
                     (state.explicit_gateways ? kNodeExplicitGateways : 0u);
    if ((node->flags & kHostDeclFlags) == flags && node->adjust == state.adjust) {
      continue;
    }
    graph_->SetHostState(node, flags, state.adjust);
    ++stats->host_state_edits;
    // Terminal/adjust/gatewayed state on the local host never alters a route
    // (CostOf skips the local side of every such check), so it applies seedlessly;
    // a deleted local bailed above.
    if (node != graph_->local()) {
      seed(node);
    }
  }

  for (uint64_t key : sorted_keys(touched_aliases)) {
    NameId a_id = static_cast<NameId>(key >> 32);
    NameId b_id = static_cast<NameId>(key & 0xffffffffu);
    bool want = alias_present.contains(key);
    Node* a = intern_node(a_id);
    Node* b = intern_node(b_id);
    if (want == (graph_->FindAlias(a, b) != nullptr)) {
      continue;
    }
    if (want) {
      graph_->AddAlias(a, b, SourcePos{});
    } else {
      graph_->RemoveAlias(a, b);
    }
    ++stats->alias_edits;
    // Each endpoint gains or loses an in-edge; an alias edge into the local host is
    // output-invisible (nothing beats the root label at zero cost and zero hops).
    if (a != graph_->local()) {
      seed(a);
    }
    if (b != graph_->local()) {
      seed(b);
    }
  }

  for (NameId id : orphans) {
    if (Node* node = graph_->Find(id)) {
      if (node == graph_->local()) {
        *why = "local host orphaned";
        return false;
      }
      graph_->RetireNode(node);
      retired_names_.insert(id);
      seed(node);
    }
  }

  if (seeds.empty()) {
    stats->dirty_nodes = 0;
    stats->routes_changed = 0;
    dirty_route_ids_.clear();
    return true;  // declarations shuffled without changing effective state
  }
  // Hash-map iteration seeded the list; sort so the patch (and therefore the route
  // set's insertion order) is reproducible run to run.
  std::sort(seeds.begin(), seeds.end(),
            [](const Node* a, const Node* b) { return a->order < b->order; });

  Mapper mapper(graph_.get(), IncrementalMapOptions());
  std::string patch_why;
  std::optional<std::vector<Node*>> dirty = mapper.Patch(map_, seeds, &patch_why);
  if (!dirty.has_value()) {
    *why = "mapper patch refused: " + patch_why;
    return false;
  }
  for (Node* node : *dirty) {
    if (stats->region_has_aliases) {
      break;
    }
    for (Link* link = node->links; link != nullptr; link = link->next) {
      if (link->alias()) {
        stats->region_has_aliases = true;
        break;
      }
    }
  }

  // --- emit the dirty region's routes ---
  if (emitted_by_order_.size() < graph_->node_count()) {
    emitted_by_order_.resize(graph_->node_count());
  }
  RoutePrinter printer(map_, PrintOptions{});
  std::vector<RouteUpsert> upserts;
  std::vector<std::string> erases;
  for (Node* node : *dirty) {
    std::string& old_name = emitted_by_order_[node->order];
    std::optional<RouteEntry> entry = printer.BuildEntryFor(node->label[0]);
    if (entry.has_value()) {
      if (old_name != entry->name) {
        if (!old_name.empty()) {
          erases.push_back(old_name);
          if (auto it = emitted_count_.find(old_name); it != emitted_count_.end()) {
            if (--it->second == 0) {
              emitted_count_.erase(it);
            }
          }
        }
        if (++emitted_count_[entry->name] > 1) {
          // Two live nodes now print the same name; "later preorder wins" cannot be
          // reproduced by a delta.  The full emission handles it (and latches
          // emitted_collision_ so later updates skip straight to replay).
          *why = "patch would create a display-name collision";
          return false;
        }
        old_name = entry->name;
      }
      upserts.push_back(RouteUpsert{entry->name, std::move(entry->route), entry->cost});
    } else if (!old_name.empty()) {
      erases.push_back(old_name);
      if (auto it = emitted_count_.find(old_name); it != emitted_count_.end()) {
        if (--it->second == 0) {
          emitted_count_.erase(it);
        }
      }
      old_name.clear();
    }
  }
  dirty_route_ids_ = routes_.ApplyDelta(upserts, erases);
  stats->dirty_nodes = dirty->size();
  stats->routes_changed = dirty_route_ids_.size();
  return true;
}

}  // namespace incr
}  // namespace pathalias
