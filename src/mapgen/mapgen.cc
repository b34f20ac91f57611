#include "src/mapgen/mapgen.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "src/support/hash_table.h"
#include "src/support/rng.h"

namespace pathalias {
namespace {

// 1986 host names: short, pronounceable, lower-case (ihnp4, seismo, mcvax...).
class NameMaker {
 public:
  explicit NameMaker(Rng* rng) : rng_(rng) {}

  std::string Fresh(std::string_view flavor) {
    for (;;) {
      std::string name = Coin(flavor);
      if (used_.insert(name).second) {
        return name;
      }
    }
  }

  // Returns a name designated for deliberate reuse across two site files (the paper's
  // bilbo scenario).  Sequential so distinct collision pairs never share a name —
  // otherwise two pairs could declare the same name private in the same file.
  std::string Collide() {
    std::string name = "bilbo" + std::to_string(collide_counter_++);
    used_.insert(name);
    return name;
  }

 private:
  std::string Coin(std::string_view flavor) {
    static constexpr std::string_view kConsonants = "bcdfghjklmnprstvwz";
    static constexpr std::string_view kVowels = "aeiou";
    std::string name;
    int syllables = 2 + static_cast<int>(rng_->Below(2));
    for (int i = 0; i < syllables; ++i) {
      name += kConsonants[rng_->Below(kConsonants.size())];
      name += kVowels[rng_->Below(kVowels.size())];
    }
    if (!flavor.empty() && rng_->Chance(0.3)) {
      name += flavor;
    }
    if (rng_->Chance(0.25)) {
      name += static_cast<char>('0' + rng_->Below(10));
    }
    return name;
  }

  Rng* rng_;
  std::unordered_set<std::string> used_;
  int collide_counter_ = 0;
};

// Costs drawn to mimic the mix of grades in the published maps.
std::string_view UucpCost(Rng& rng, bool long_haul) {
  double roll = rng.Double();
  if (long_haul) {
    if (roll < 0.25) {
      return "DEDICATED";
    }
    if (roll < 0.60) {
      return "DEMAND";
    }
    if (roll < 0.80) {
      return "DIRECT";
    }
    return "HOURLY";
  }
  if (roll < 0.10) {
    return "HOURLY";
  }
  if (roll < 0.25) {
    return "EVENING";
  }
  if (roll < 0.60) {
    return "DAILY";
  }
  if (roll < 0.75) {
    return "POLLED";
  }
  if (roll < 0.90) {
    return "WEEKLY";
  }
  return "DAILY*2";  // arithmetic expressions appear in real maps
}

class Generator {
 public:
  explicit Generator(const MapGenConfig& config)
      : config_(config), rng_(config.seed), names_(&rng_) {
    file_bodies_.resize(static_cast<size_t>(std::max(config.files, 2)));
  }

  GeneratedMap Run() {
    MakeBackbone();
    MakeRegionals();
    MakeLeaves();
    MakeNets();
    MakeDomains();
    MakeAliases();
    MakePrivateCollisions();
    Finish();
    return std::move(map_);
  }

 private:
  // Every declaration is appended to some site file; spreading them keeps private
  // scoping and cross-file duplicate handling honest at scale.
  std::string& FileFor(size_t hint) { return file_bodies_[hint % file_bodies_.size()]; }

  // A host's outgoing links are declared in its own site file, as in the real mapping
  // project (each site reports its own connections).
  size_t HomeFile(const std::string& host) const {
    return static_cast<size_t>(HashHostName(host)) % file_bodies_.size();
  }

  void Emit(size_t file_hint, const std::string& line) {
    FileFor(file_hint) += line;
    FileFor(file_hint) += '\n';
  }

  void EmitLink(size_t file_hint, const std::string& from, const std::string& to,
                std::string_view cost) {
    Emit(file_hint, from + "\t" + to + "(" + std::string(cost) + ")");
    ++map_.link_declarations;
  }

  // Declares from→to in from's file and to→from in to's file.
  void EmitLinkPair(const std::string& from, const std::string& to, std::string_view out_cost,
                    std::string_view back_cost) {
    EmitLink(HomeFile(from), from, to, out_cost);
    EmitLink(HomeFile(to), to, from, back_cost);
  }

  void MakeBackbone() {
    for (int i = 0; i < config_.backbone_hosts; ++i) {
      map_.backbone.push_back(names_.Fresh("vax"));
      ++map_.host_count;
    }
    // Dense long-haul mesh: most pairs talk, both directions, asymmetric costs.
    for (size_t i = 0; i < map_.backbone.size(); ++i) {
      for (size_t j = i + 1; j < map_.backbone.size(); ++j) {
        if (!rng_.Chance(0.55)) {
          continue;
        }
        EmitLinkPair(map_.backbone[i], map_.backbone[j], UucpCost(rng_, true),
                     UucpCost(rng_, true));
      }
    }
    map_.local = map_.backbone.front();
  }

  void AttachBoth(size_t /*hint*/, const std::string& from, const std::string& to,
                  bool long_haul) {
    EmitLinkPair(from, to, UucpCost(rng_, long_haul), UucpCost(rng_, long_haul));
  }

  void MakeRegionals() {
    for (int i = 0; i < config_.regional_hosts; ++i) {
      std::string name = names_.Fresh("");
      ++map_.host_count;
      size_t hint = rng_.Below(file_bodies_.size());
      int backbone_links = 1 + static_cast<int>(rng_.Below(3));
      for (int k = 0; k < backbone_links; ++k) {
        AttachBoth(hint, name, rng_.Pick(map_.backbone), true);
      }
      // Preferential attachment among regionals themselves.
      if (!map_.regionals.empty() && rng_.Chance(0.9)) {
        AttachBoth(hint, name, rng_.Pick(map_.regionals), false);
      }
      if (map_.regionals.size() > 4 && rng_.Chance(0.4)) {
        AttachBoth(hint, name, rng_.Pick(map_.regionals), false);
      }
      map_.regionals.push_back(std::move(name));
    }
  }

  void MakeLeaves() {
    for (int i = 0; i < config_.leaf_hosts; ++i) {
      std::string name = names_.Fresh("");
      ++map_.host_count;
      size_t hint = rng_.Below(file_bodies_.size());
      const std::string& upstream =
          rng_.Chance(0.85) ? rng_.Pick(map_.regionals) : rng_.Pick(map_.backbone);
      if (rng_.Chance(config_.one_way_leaf_rate)) {
        // Calls out but is never called: reachable only via an invented back link.
        EmitLink(HomeFile(name), name, upstream, UucpCost(rng_, false));
      } else {
        AttachBoth(hint, name, upstream, false);
        if (rng_.Chance(0.5)) {
          AttachBoth(hint, name, rng_.Pick(map_.regionals), false);
        }
      }
      map_.leaves.push_back(std::move(name));
    }
  }

  void MakeNets() {
    if (config_.net_count <= 0 || config_.net_member_hosts <= 0) {
      return;
    }
    // One ARPANET-scale clique, the rest CSNET/BITNET-sized.
    std::vector<int> sizes(static_cast<size_t>(config_.net_count), 0);
    int remaining = config_.net_member_hosts;
    sizes[0] = remaining / 2;
    remaining -= sizes[0];
    for (size_t i = 1; i < sizes.size(); ++i) {
      int share = remaining / static_cast<int>(sizes.size() - i);
      sizes[i] = share;
      remaining -= share;
    }
    for (size_t n = 0; n < sizes.size(); ++n) {
      std::string net_name = names_.Fresh("");
      std::transform(net_name.begin(), net_name.end(), net_name.begin(),
                     [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
      std::string decl = net_name + " = @{";
      std::vector<std::string> members;
      for (int m = 0; m < sizes[n]; ++m) {
        std::string member = names_.Fresh("");
        ++map_.host_count;
        if (m > 0) {
          decl += ", ";
        }
        if (m % 12 == 11) {
          decl += "\n\t";  // long member lists wrap in real maps
        }
        decl += member;
        members.push_back(member);
        map_.net_members.push_back(member);
      }
      decl += "}(DEDICATED)";
      size_t hint = rng_.Below(file_bodies_.size());
      Emit(hint, decl);
      ++map_.net_count;
      map_.link_declarations += sizes[n];
      // Explicit gateways on the backbone; entry anywhere else is penalized.
      Emit(hint, "gatewayed {" + net_name + "}");
      int gateway_count = 1 + static_cast<int>(rng_.Below(2));
      for (int g = 0; g < gateway_count; ++g) {
        const std::string& gw = rng_.Pick(map_.backbone);
        // ARPANET-style user@host entry, declared by the gateway's own site file.
        EmitLink(HomeFile(gw), gw, "@" + net_name, "DEMAND");
        Emit(hint, "gateway {" + net_name + "!" + gw + "}");
      }
      // A few dual-homed members keep the two worlds tied together.
      for (int d = 0; d < std::max(1, sizes[n] / 30); ++d) {
        AttachBoth(hint, rng_.Pick(members), rng_.Pick(map_.regionals), false);
      }
      // A handful of UUCP leaves hang *behind* net members: their only route enters
      // the net with '@' and leaves with '!', the ambiguous mixing the paper says is
      // penalized on "only a fraction of a percent" of routes (experiment E11).
      for (int r = 0; r < std::max(1, sizes[n] / 150); ++r) {
        std::string leaf = names_.Fresh("");
        ++map_.host_count;
        AttachBoth(hint, leaf, rng_.Pick(members), false);
        map_.leaves.push_back(std::move(leaf));
      }
    }
  }

  void MakeDomains() {
    for (int d = 0; d < config_.domain_count; ++d) {
      std::string top = "." + names_.Fresh("");
      size_t hint = rng_.Below(file_bodies_.size());
      const std::string& gw = rng_.Pick(map_.backbone);
      EmitLink(HomeFile(gw), gw, top, "DEMAND");
      ++map_.domain_count;
      int subdomains = 1 + static_cast<int>(rng_.Below(3));
      int hosts_per = std::max(1, config_.domain_hosts / std::max(1, config_.domain_count) /
                                      std::max(1, subdomains));
      for (int s = 0; s < subdomains; ++s) {
        std::string sub = "." + names_.Fresh("") + top;  // suffix-structured names
        EmitLink(hint, top, sub, "0");
        ++map_.domain_count;
        std::string decl = sub + "\t";
        std::string first_member;
        for (int h = 0; h < hosts_per; ++h) {
          std::string host = names_.Fresh("");
          ++map_.host_count;
          if (h > 0) {
            decl += ", ";
          }
          decl += host + "(0)";
          if (h == 0) {
            first_member = host;
          }
          map_.domain_members.push_back(host + sub);
          ++map_.link_declarations;
        }
        Emit(hint, decl);
        // Some domain members are dual-homed (an expensive UUCP link besides the
        // domain) and relay to a host of their own — the paper's motown topology:
        // the best route to the member goes via the domain, so continuing to the
        // relayed host is penalized unless the second-best (UUCP) path is kept.
        if (!first_member.empty() && rng_.Chance(0.4)) {
          EmitLinkPair(first_member, rng_.Pick(map_.regionals), "WEEKLY", "WEEKLY");
          std::string behind = names_.Fresh("");
          ++map_.host_count;
          EmitLinkPair(behind, first_member, "DAILY", "DAILY");
          map_.leaves.push_back(std::move(behind));
        }
      }
    }
  }

  void MakeAliases() {
    auto consider = [&](const std::vector<std::string>& hosts) {
      for (const std::string& host : hosts) {
        if (rng_.Chance(config_.alias_fraction)) {
          std::string nickname = names_.Fresh("");
          Emit(rng_.Below(file_bodies_.size()), host + " = " + nickname);
          ++map_.alias_count;
        }
      }
    };
    consider(map_.backbone);
    consider(map_.regionals);
    consider(map_.net_members);
  }

  void MakePrivateCollisions() {
    // Each colliding instance hooks onto a distinct regional: both directions must be
    // declared inside the private file (only there does the name bind to this
    // instance), so reusing a regional would make that regional look collision-y.
    std::vector<std::string> uplinks = map_.regionals;
    rng_.Shuffle(uplinks);
    size_t next_uplink = 0;
    for (int p = 0; p < config_.private_pairs; ++p) {
      std::string name = names_.Collide();
      size_t file_a = rng_.Below(file_bodies_.size());
      size_t file_b = (file_a + 1 + rng_.Below(file_bodies_.size() - 1)) % file_bodies_.size();
      for (size_t file : {file_a, file_b}) {
        const std::string& regional = uplinks[next_uplink++ % uplinks.size()];
        Emit(file, "private {" + name + "}");
        ++map_.private_declarations;
        EmitLink(file, name, regional, "DAILY");
        EmitLink(file, regional, name, "DAILY");
        ++map_.host_count;
      }
    }
  }

  void Finish() {
    for (size_t i = 0; i < file_bodies_.size(); ++i) {
      map_.files.push_back(InputFile{"site" + std::to_string(i) + ".map",
                                     std::move(file_bodies_[i])});
    }
  }

  MapGenConfig config_;
  Rng rng_;
  NameMaker names_;
  std::vector<std::string> file_bodies_;
  GeneratedMap map_;
};

// Million-host generator (--profile usenet-scale).  Same statistical shape as
// Generator — backbone mesh, regionals, leaves, nets, domains — but sized from
// config.scale_hosts, with two structural differences that matter at scale:
//   * the bulk of hosts are domain members declared FULLY QUALIFIED
//     (m123.sub.top(0)), so nearly every node sits in a real domain subtree
//     with an interner suffix chain;
//   * names are counter-based (the syllable namespace exhausts near ~700k).
// Domain subtrees carry intra-subdomain UUCP links so each suffix subtree is a
// genuine subgraph, and a small dual-home rate keeps cross-subtree edges alive.
class ScaleGenerator {
 public:
  explicit ScaleGenerator(const MapGenConfig& config)
      : config_(config), rng_(config.seed), names_(&rng_) {
    file_bodies_.resize(static_cast<size_t>(std::max(config.files, 4)));
  }

  GeneratedMap Run() {
    MakeBackbone();
    MakeRegionals();
    MakeDomains();
    MakeNets();
    MakeLeaves();
    MakeAliases();
    Finish();
    return std::move(map_);
  }

 private:
  std::string& FileFor(size_t hint) { return file_bodies_[hint % file_bodies_.size()]; }
  size_t HomeFile(const std::string& host) const {
    return static_cast<size_t>(HashHostName(host)) % file_bodies_.size();
  }

  void Emit(size_t file_hint, const std::string& line) {
    FileFor(file_hint) += line;
    FileFor(file_hint) += '\n';
  }

  void EmitLink(size_t file_hint, const std::string& from, const std::string& to,
                std::string_view cost) {
    std::string& body = FileFor(file_hint);
    body += from;
    body += '\t';
    body += to;
    body += '(';
    body += cost;
    body += ")\n";
    ++map_.link_declarations;
  }

  // Declares both directions in the endpoints' home files; a configurable
  // fraction of pairs is additionally declared dead (one direction), the
  // density knob the audit/dead-relay passes are profiled against.
  void EmitLinkPair(const std::string& from, const std::string& to, bool long_haul) {
    EmitLink(HomeFile(from), from, to, UucpCost(rng_, long_haul));
    EmitLink(HomeFile(to), to, from, UucpCost(rng_, long_haul));
    if (rng_.Chance(config_.dead_link_fraction)) {
      Emit(HomeFile(from), "dead {" + from + "!" + to + "}");
      ++map_.dead_link_declarations;
    }
  }

  std::string CounterName(char prefix) {
    // Base36 keeps million-host names short (map text is the parse workload).
    static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
    uint64_t n = counter_++;
    char buffer[16];
    int at = 16;
    do {
      buffer[--at] = kDigits[n % 36];
      n /= 36;
    } while (n != 0);
    std::string name(1, prefix);
    name.append(buffer + at, static_cast<size_t>(16 - at));
    return name;
  }

  void MakeBackbone() {
    int count = std::clamp(config_.scale_hosts / 4000, 16, 48);
    for (int i = 0; i < count; ++i) {
      map_.backbone.push_back(names_.Fresh("vax"));
      ++map_.host_count;
    }
    for (size_t i = 0; i < map_.backbone.size(); ++i) {
      for (size_t j = i + 1; j < map_.backbone.size(); ++j) {
        if (rng_.Chance(0.5)) {
          EmitLinkPair(map_.backbone[i], map_.backbone[j], true);
        }
      }
    }
    map_.local = map_.backbone.front();
  }

  void MakeRegionals() {
    int count = std::max(config_.scale_hosts / 50, 60);
    map_.regionals.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      std::string name = CounterName('r');
      ++map_.host_count;
      int backbone_links = 1 + static_cast<int>(rng_.Below(2));
      for (int k = 0; k < backbone_links; ++k) {
        EmitLinkPair(name, rng_.Pick(map_.backbone), true);
      }
      if (!map_.regionals.empty() && rng_.Chance(0.8)) {
        EmitLinkPair(name, rng_.Pick(map_.regionals), false);
      }
      map_.regionals.push_back(std::move(name));
    }
  }

  void MakeDomains() {
    int total_members = static_cast<int>(config_.domain_member_fraction *
                                         static_cast<double>(config_.scale_hosts));
    int tops = std::max(config_.top_domains, 1);
    int per_leaf = std::max(config_.members_per_subdomain, 1);
    map_.domain_members.reserve(static_cast<size_t>(total_members));
    for (int t = 0; t < tops; ++t) {
      std::string top = "." + names_.Fresh("");
      size_t hint = rng_.Below(file_bodies_.size());
      // Gateways on the backbone; a second one keeps the subtree 2-connected.
      int gateways = 1 + static_cast<int>(rng_.Below(2));
      for (int g = 0; g < gateways; ++g) {
        const std::string& gw = rng_.Pick(map_.backbone);
        EmitLink(HomeFile(gw), gw, top, "DEMAND");
      }
      ++map_.domain_count;
      int members_here = total_members / tops + (t < total_members % tops ? 1 : 0);
      int leaf_subs = std::max(1, (members_here + per_leaf - 1) / per_leaf);
      for (int s = 0; s < leaf_subs; ++s) {
        // A chain of 1..domain_depth labels; intermediate levels are unique per
        // leaf, so each tree is a star of suffix chains of varying depth.
        int depth = 1 + static_cast<int>(rng_.Below(
                            static_cast<uint64_t>(std::max(config_.domain_depth, 1))));
        std::string parent = top;
        for (int d = 0; d < depth; ++d) {
          std::string sub = CounterName('s') + parent;
          sub.insert(sub.begin(), '.');
          EmitLink(hint, parent, sub, "0");
          ++map_.domain_count;
          parent = std::move(sub);
        }
        int count = std::min(per_leaf, members_here - s * per_leaf);
        if (count <= 0) {
          break;
        }
        std::string decl = parent + "\t";
        size_t first_member = map_.domain_members.size();
        for (int m = 0; m < count; ++m) {
          std::string member = CounterName('m') + parent;
          ++map_.host_count;
          if (m > 0) {
            decl += ", ";
          }
          if (m % 8 == 7) {
            decl += "\n\t";
          }
          decl += member + "(0)";
          ++map_.link_declarations;
          if (rng_.Chance(config_.dead_host_fraction)) {
            Emit(hint, "dead {" + member + "}");
            ++map_.dead_host_declarations;
          }
          map_.domain_members.push_back(std::move(member));
        }
        Emit(hint, decl);
        // Intra-subdomain UUCP mesh: members also call each other directly, so
        // the suffix subtree is a connected subgraph, not a star through the
        // domain node — the edges a per-shard Dijkstra actually walks.
        for (size_t m = first_member + 1; m < map_.domain_members.size(); ++m) {
          if (rng_.Chance(config_.intra_domain_link_rate)) {
            size_t other = first_member + rng_.Below(m - first_member);
            EmitLinkPair(map_.domain_members[m], map_.domain_members[other], false);
          }
        }
        // Dual-homed members: a UUCP link out to a regional — the cross-subtree
        // edges the shard-stitching fixpoint has to reconcile.
        for (size_t m = first_member; m < map_.domain_members.size(); ++m) {
          if (rng_.Chance(config_.dual_home_rate)) {
            EmitLinkPair(map_.domain_members[m], rng_.Pick(map_.regionals), false);
          }
        }
      }
    }
  }

  void MakeNets() {
    int total = static_cast<int>(config_.net_member_fraction *
                                 static_cast<double>(config_.scale_hosts));
    if (config_.net_count <= 0 || total <= 0) {
      return;
    }
    std::vector<int> sizes(static_cast<size_t>(config_.net_count), 0);
    int remaining = total;
    sizes[0] = remaining / 2;
    remaining -= sizes[0];
    for (size_t i = 1; i < sizes.size(); ++i) {
      int share = remaining / static_cast<int>(sizes.size() - i);
      sizes[i] = share;
      remaining -= share;
    }
    for (size_t n = 0; n < sizes.size(); ++n) {
      if (sizes[n] <= 0) {
        continue;
      }
      std::string net_name = names_.Fresh("");
      std::transform(net_name.begin(), net_name.end(), net_name.begin(),
                     [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
      std::string decl = net_name + " = @{";
      for (int m = 0; m < sizes[n]; ++m) {
        std::string member = CounterName('n');
        ++map_.host_count;
        if (m > 0) {
          decl += ", ";
        }
        if (m % 12 == 11) {
          decl += "\n\t";
        }
        decl += member;
        map_.net_members.push_back(std::move(member));
      }
      decl += "}(DEDICATED)";
      size_t hint = rng_.Below(file_bodies_.size());
      Emit(hint, decl);
      ++map_.net_count;
      map_.link_declarations += sizes[n];
      Emit(hint, "gatewayed {" + net_name + "}");
      int gateway_count = 1 + static_cast<int>(rng_.Below(2));
      for (int g = 0; g < gateway_count; ++g) {
        const std::string& gw = rng_.Pick(map_.backbone);
        EmitLink(HomeFile(gw), gw, "@" + net_name, "DEMAND");
        Emit(hint, "gateway {" + net_name + "!" + gw + "}");
      }
      size_t members_start = map_.net_members.size() - static_cast<size_t>(sizes[n]);
      for (int d = 0; d < std::max(1, sizes[n] / 30); ++d) {
        EmitLinkPair(map_.net_members[members_start + rng_.Below(static_cast<uint64_t>(sizes[n]))],
                     rng_.Pick(map_.regionals), false);
      }
    }
  }

  void MakeLeaves() {
    int count = config_.scale_hosts - map_.host_count;
    map_.leaves.reserve(static_cast<size_t>(std::max(count, 0)));
    for (int i = 0; i < count; ++i) {
      std::string name = CounterName('u');
      ++map_.host_count;
      const std::string& upstream =
          rng_.Chance(0.9) ? rng_.Pick(map_.regionals) : rng_.Pick(map_.backbone);
      if (rng_.Chance(config_.one_way_leaf_rate)) {
        EmitLink(HomeFile(name), name, upstream, UucpCost(rng_, false));
      } else {
        EmitLinkPair(name, upstream, false);
      }
      map_.leaves.push_back(std::move(name));
    }
  }

  void MakeAliases() {
    // Aliases over regionals and a slice of domain members; a domain member's
    // nickname is a FLAT name, so the zero-cost alias edge crosses from a
    // domain subtree into the flat namespace.
    for (const std::string& host : map_.regionals) {
      if (rng_.Chance(config_.alias_fraction)) {
        Emit(rng_.Below(file_bodies_.size()), host + " = " + CounterName('a'));
        ++map_.alias_count;
      }
    }
    size_t stride = map_.domain_members.size() / 200 + 1;
    for (size_t i = 0; i < map_.domain_members.size(); i += stride) {
      if (rng_.Chance(0.5)) {
        Emit(rng_.Below(file_bodies_.size()),
             map_.domain_members[i] + " = " + CounterName('a'));
        ++map_.alias_count;
      }
    }
  }

  void Finish() {
    for (size_t i = 0; i < file_bodies_.size(); ++i) {
      map_.files.push_back(InputFile{"site" + std::to_string(i) + ".map",
                                     std::move(file_bodies_[i])});
    }
  }

  MapGenConfig config_;
  Rng rng_;
  NameMaker names_;
  uint64_t counter_ = 0;
  std::vector<std::string> file_bodies_;
  GeneratedMap map_;
};

}  // namespace

MapGenConfig MapGenConfig::Small() {
  MapGenConfig config;
  config.seed = 42;
  config.backbone_hosts = 8;
  config.regional_hosts = 60;
  config.leaf_hosts = 420;
  config.net_member_hosts = 240;
  config.net_count = 5;
  config.domain_count = 4;
  config.domain_hosts = 24;
  config.private_pairs = 6;
  config.files = 10;
  return config;
}

MapGenConfig MapGenConfig::Usenet1986() { return MapGenConfig(); }

MapGenConfig MapGenConfig::UsenetScale(int hosts) {
  MapGenConfig config;
  config.seed = 2026;
  config.scale_hosts = std::max(hosts, 1000);
  config.net_count = std::clamp(hosts / 20000, 4, 24);
  config.private_pairs = 0;
  config.files = std::clamp(hosts / 500, 20, 2000);
  return config;
}

std::string GeneratedMap::Joined() const {
  std::string out;
  for (const InputFile& file : files) {
    out += file.content;
  }
  return out;
}

GeneratedMap GenerateUsenetMap(const MapGenConfig& config) {
  if (config.scale_hosts > 0) {
    return ScaleGenerator(config).Run();
  }
  return Generator(config).Run();
}

std::vector<std::string> GenerateAddressTrace(const GeneratedMap& map, int count,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> trace;
  trace.reserve(static_cast<size_t>(count));
  auto any_host = [&]() -> const std::string& {
    double roll = rng.Double();
    if (roll < 0.25 && !map.backbone.empty()) {
      return rng.Pick(map.backbone);
    }
    if (roll < 0.55 && !map.regionals.empty()) {
      return rng.Pick(map.regionals);
    }
    if (roll < 0.85 && !map.leaves.empty()) {
      return rng.Pick(map.leaves);
    }
    if (!map.net_members.empty()) {
      return rng.Pick(map.net_members);
    }
    return rng.Pick(map.leaves);
  };
  for (int i = 0; i < count; ++i) {
    double roll = rng.Double();
    if (roll < 0.35) {
      trace.push_back(any_host() + "!user" + std::to_string(rng.Below(100)));
    } else if (roll < 0.55) {
      // USENET reply style: a multi-hop bang path.
      std::string path = any_host();
      int hops = 1 + static_cast<int>(rng.Below(3));
      for (int h = 0; h < hops; ++h) {
        path += "!" + any_host();
      }
      trace.push_back(path + "!user" + std::to_string(rng.Below(100)));
    } else if (roll < 0.70) {
      trace.push_back("user" + std::to_string(rng.Below(100)) + "@" + any_host());
    } else if (roll < 0.85 && !map.domain_members.empty()) {
      trace.push_back(rng.Pick(map.domain_members) + "!user" + std::to_string(rng.Below(100)));
    } else if (roll < 0.95) {
      trace.push_back("user" + std::to_string(rng.Below(100)) + "%" + any_host() + "@" +
                      any_host());
    } else if (roll < 0.98) {
      // Loop test: the same host twice must survive optimization.
      const std::string& host = any_host();
      trace.push_back(host + "!" + any_host() + "!" + host + "!user");
    } else {
      trace.push_back("no-such-host-" + std::to_string(rng.Below(1000)) + "!user");
    }
  }
  return trace;
}

}  // namespace pathalias
