// Synthetic 1986-scale map generation.
//
// The paper's measurements ran against the live UUCP-mapping-project data: "USENET maps
// contain over 5,700 nodes and 20,000 links, while ARPANET, CSNET, and BITNET add
// another 2,800 nodes and 8,000 links."  Those files are not reproducible inputs, so
// this module synthesizes maps with the same statistical profile:
//   * a small, densely connected long-haul backbone (the ihnp4/seismo/ucbvax role);
//   * regional hosts hanging off the backbone; leaf sites hanging off regionals —
//     giving the sparse e ≈ 3.5v degree profile the paper's complexity argument
//     depends on;
//   * mostly-bidirectional links with asymmetric costs (callers pay), plus a tail of
//     call-out-only leaves whose return routes must be invented by back-links;
//   * networks declared as cliques (one ARPANET-sized, several CSNET/BITNET-sized)
//     with explicit gateways on the backbone;
//   * domain trees with suffix-structured names, members reached through them;
//   * aliases, and deliberate host-name collisions declared private in two files.
//
// Output is real map *text* split across site files, so benchmarks exercise the same
// parse→map→print pipeline the paper timed.  Everything is seeded and deterministic.

#ifndef SRC_MAPGEN_MAPGEN_H_
#define SRC_MAPGEN_MAPGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/parser/parser.h"

namespace pathalias {

struct MapGenConfig {
  uint64_t seed = 1986;

  // UUCP/USENET side.
  int backbone_hosts = 20;
  int regional_hosts = 620;
  int leaf_hosts = 5060;  // backbone + regional + leaf ≈ 5,700

  // ARPANET/CSNET/BITNET side.
  int net_member_hosts = 2800;
  int net_count = 16;      // one net takes the lion's share (the ARPANET role)
  int domain_count = 10;   // domain trees (gateways sit on the backbone)
  int domain_hosts = 120;  // hosts reachable only through domains (within net_member_hosts? no: extra)

  double alias_fraction = 0.02;   // hosts that also declare a nickname
  int private_pairs = 24;         // name collisions declared private in two files
  double one_way_leaf_rate = 0.03;  // leaves that only call out (back-link fodder)

  int files = 40;  // site files the declarations are spread over

  // ---- usenet-scale profile (mapgen --profile usenet-scale) ----
  // When scale_hosts > 0 a different generator runs: strata are sized from the
  // total, the bulk of hosts live in domain subtrees and are declared with
  // fully-qualified names (host.sub.top), and names are counter-based so the
  // syllable namespace never exhausts.  This is the million-host workload.
  int scale_hosts = 0;                  // total host target; > 0 engages the profile
  int domain_depth = 3;                 // max subdomain labels under a top-level domain
  int top_domains = 12;                 // independent top-level domain trees
  int members_per_subdomain = 250;      // domain members declared per leaf subdomain
  double domain_member_fraction = 0.85; // hosts living inside domain subtrees
  double net_member_fraction = 0.04;    // hosts inside net cliques
  double intra_domain_link_rate = 0.30; // member→member UUCP links inside a subdomain
  double dual_home_rate = 0.01;         // members with a UUCP link out to a regional
  double dead_link_fraction = 0.001;    // bidirectional link pairs also declared dead
  double dead_host_fraction = 0.0003;   // domain members declared dead

  // A configuration scaled down for unit tests (~1/10 size, same structure).
  static MapGenConfig Small();
  // The paper-scale configuration described above.
  static MapGenConfig Usenet1986();
  // The usenet-scale profile sized for `hosts` total hosts (100k/1M benchmarks).
  static MapGenConfig UsenetScale(int hosts);
};

struct GeneratedMap {
  std::vector<InputFile> files;
  std::string local;  // suggested Dijkstra source (a backbone host)

  // Ground truth for tests/benchmarks.
  int host_count = 0;       // host names emitted (excluding nets/domains)
  int link_declarations = 0;
  int net_count = 0;
  int domain_count = 0;
  int alias_count = 0;
  int private_declarations = 0;
  int dead_link_declarations = 0;
  int dead_host_declarations = 0;

  // All input concatenated (order preserved) for single-buffer consumers.
  std::string Joined() const;
  // Host names by stratum, for workload generators.
  std::vector<std::string> backbone;
  std::vector<std::string> regionals;
  std::vector<std::string> leaves;
  std::vector<std::string> net_members;
  std::vector<std::string> domain_members;  // fully qualified (host.sub.top)
};

GeneratedMap GenerateUsenetMap(const MapGenConfig& config);

// A stream of destination addresses a 1986 mail relay would see, drawn from the map:
// bang paths over known hosts, user@host, domainized names, %-hack forms, occasional
// unknown hosts and loop-test paths.  Used by the resolver benchmark (E13).
std::vector<std::string> GenerateAddressTrace(const GeneratedMap& map, int count,
                                              uint64_t seed);

}  // namespace pathalias

#endif  // SRC_MAPGEN_MAPGEN_H_
