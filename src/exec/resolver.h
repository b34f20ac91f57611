// Mailer-side route resolution (paper §Output "Domains" and §Integrating pathalias
// with mailers).
//
// Given a destination address and a pathalias route database, produce the concrete
// address to hand to the transport.  Implements, verbatim from the paper:
//   * the domain lookup order — "a search for caip.rutgers.edu; if found, the mailer
//     uses argument pleasant ... Otherwise, a search for .rutgers.edu, followed by a
//     search for .edu", where the argument handed to a domain route is the route
//     relative to its gateway (caip.rutgers.edu!pleasant);
//   * the optimization policy question — "should the mailer simply find a route to the
//     first site in the string, or should it search for the right-most host known to
//     its database?" — as a selectable strategy;
//   * the loop-test caveat — "an overly-enthusiastic optimizer can eliminate them
//     altogether": paths that visit a host twice are never shortened.
//
// The resolver reads the mmap'd FrozenRouteSet from src/image: the .pari image is
// the one form routes are resolved from.  Code that builds its routes in memory
// freezes them first (FrozenImage::Freeze).

#ifndef SRC_EXEC_RESOLVER_H_
#define SRC_EXEC_RESOLVER_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/image/frozen_route_set.h"
#include "src/route_db/address.h"
#include "src/route_db/route_db.h"

namespace pathalias {

struct ResolveOptions {
  ParseStyle parse_style = ParseStyle::kUucpFirst;

  enum class Optimize {
    kNone,            // hand the whole remainder to the first relay, verbatim
    kFirstHop,        // route to the first relay; remainder becomes the argument
    kRightmostKnown,  // route to the rightmost relay the database knows
  };
  Optimize optimize = Optimize::kFirstHop;

  // Never optimize a path that names some host twice (UUCP loop tests).
  bool preserve_loops = true;
};

struct Resolution {
  bool ok = false;
  std::string route;     // final address, %s already substituted
  // pathalint: allow(R1): rendered result for the caller — Resolution is the
  // output edge (mailers print these); the interned form is BatchLookup.
  std::string via;       // database key that matched (host or domain)
  std::string argument;  // what was substituted for %s
  std::string error;     // set iff !ok
};

// One batch lookup outcome: a handle and views into the route set only, no owned
// strings — back-resolve via the set's names() when formatting.
struct BatchLookup {
  RouteView route;               // !route.ok(): no route known
  NameId via = kNoName;          // database key that matched (host or domain suffix)
  bool suffix_match = false;     // a domain suffix hit: prepend the host to the argument
};

// Firehose-style probe/collision/retire counters for the pipelined batch path.
// The counting code compiles in only under PATHALIAS_PROBE_STATS (CMake option of
// the same name); without it ResolveBatchPipelined zeroes the struct and the hot
// loop carries no counter writes at all.  Counters accrue into a caller-local
// struct, so concurrent pipelines over one image never share state.
struct ResolvePipelineStats {
  uint64_t lookups = 0;                 // queries entering the pipeline
  uint64_t name_probes = 0;             // probe sequences begun (host + suffix texts)
  uint64_t slot_collisions = 0;         // occupied slots with a different hash32
  uint64_t candidate_rejects = 0;       // hash32 matches whose bytes differed
  uint64_t stranger_continuations = 0;  // dotted-suffix re-probes spilled into the window
  uint64_t suffix_memo_hits = 0;        // suffix probes answered by the batch-local memo
  uint64_t chain_steps = 0;             // domain-suffix chain hops walked
  uint64_t route_checks = 0;            // HasRoute inspections
  uint64_t retired_hits = 0;
  uint64_t retired_misses = 0;

  // True when the counters above are live (PATHALIAS_PROBE_STATS builds).
  static constexpr bool compiled_in() {
#ifdef PATHALIAS_PROBE_STATS
    return true;
#else
    return false;
#endif
  }
};

namespace resolver_detail {

// The UUCP loop test on a parsed bang path: true when some host appears twice.
// Reply-path hot loop: bang paths are a handful of hosts, so the quadratic scan
// over the vector beats a heap-allocating hash set by an order of magnitude at
// realistic lengths (no allocation, no hashing, two or three resident lines) and
// only loses past ~100 hops — far beyond any UUCP loop test.
inline bool HasRepeatedHost(const std::vector<std::string>& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    const std::string& host = path[i];
    for (size_t j = 0; j < i; ++j) {
      if (path[j] == host) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace resolver_detail

class Resolver {
 public:
  Resolver(const FrozenRouteSet* routes, ResolveOptions options)
      : routes_(routes), options_(options) {}

  Resolution Resolve(std::string_view destination) const;

  // The paper's lookup: exact host name, then successive domain suffixes, longest
  // first.  On a suffix match the caller must prepend the full host name to the
  // argument.  `matched_key` receives the database key that hit — always a view into
  // the image's interner (alive as long as the image), never an allocation.
  RouteView Lookup(std::string_view host, std::string_view* matched_key) const;

  // Bulk form of Lookup for mailer delivery scans: resolves hosts[i] into results[i]
  // and returns the number that matched.  Only the common prefix is processed: with
  // results.size() < hosts.size() the surplus hosts are ignored (an empty span of
  // either resolves nothing and returns 0).  A query with no routable shape — empty,
  // all whitespace, undotted and unknown — is a plain miss, never an error.  The
  // domain-suffix walk rides the interner's precomputed suffix chains — after the
  // single hash that locates the query name, misses and domain fallbacks are
  // id-chasing with zero per-query allocations.
  //
  // ResolveBatch runs the software-pipelined loop at kDefaultPipelineWindow (it is
  // ResolveBatchPipelined with the default window); results are byte-identical to
  // the one-LookupOne-per-query reference loop in src/baseline at every window
  // size — enforced by tests, the fuzz harness, and CI against the committed
  // benchmark run.
  size_t ResolveBatch(std::span<const std::string_view> hosts,
                      std::span<BatchLookup> results) const;

  // The software pipeline: a ring of `window` lookups in flight.  Each lane
  // advances one stage per sweep — hash+slot-prefetch on launch, one probe-slot
  // inspection, entry-hash verify, name-byte verify, route-index check / suffix
  // chain hop, route-record retire — and every stage touches only lines a
  // prefetch was issued for one full sweep (window-1 other lane steps) earlier.
  // Misses don't stall the pipe: a stranger's next dotted-suffix probe and a
  // suffix walk's next chain hop are spilled back into the lane as continuations.
  // `window` is clamped to [1, kMaxPipelineWindow].  An image with no names
  // (the only kind whose table cannot be probed slot-wise) misses every query.
  // `stats`, when non-null, is zeroed and — in PATHALIAS_PROBE_STATS builds —
  // filled with probe/collision/retire counters for the call.
  size_t ResolveBatchPipelined(std::span<const std::string_view> hosts,
                               std::span<BatchLookup> results, size_t window,
                               ResolvePipelineStats* stats = nullptr) const;

  // Measured sweet spot across map scales: at 1986 scale (8-9k names, cache
  // resident) any window from 8 to 48 is within noise of the best; at 4x-16x
  // scale (L3/DRAM resident) wider windows win, flat from 24 up.  24 takes the
  // plateau of both regimes without outsizing the lane state.
  static constexpr size_t kDefaultPipelineWindow = 24;
  static constexpr size_t kMaxPipelineWindow = 64;

  // The per-query pieces ResolveBatch is made of, exposed for the sharded batch
  // engine, which hashes each query once and wants to memoize the walk that
  // follows.  All three are const, allocation-free and mutate nothing, so any
  // number of threads may call them against one image concurrently.
  //
  // LookupInterned: the walk for a query the interner already knows, starting from
  // its id (exact route, then the precomputed suffix chain).  The result is a pure
  // function of `id` — what makes it cacheable under a NameId key.
  BatchLookup LookupInterned(NameId id) const;
  // LookupStranger: the walk for a query the interner does not know — probe its
  // dotted suffixes until one is interned, then chase that chain.  There is no id to
  // key a cache on; any hit is by definition a domain-suffix match.
  BatchLookup LookupStranger(std::string_view host) const;
  // LookupOne: Find + dispatch to the two above; exactly one ResolveBatch slot.
  BatchLookup LookupOne(std::string_view host) const;

 private:
  const FrozenRouteSet* routes_;
  ResolveOptions options_;
};

}  // namespace pathalias

#endif  // SRC_EXEC_RESOLVER_H_
