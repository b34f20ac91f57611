// The route database a mail system consumes (paper §Output, §Integrating pathalias
// with mailers).
//
// pathalias emits "a simple linear file, in the UNIX tradition"; this module parses
// that file back into an indexed set and serializes it; src/image freezes a RouteSet
// into the .pari image for "rapid database retrieval".  The RouteSet is the builder
// side: the mapper's output (src/core), text routes, and incremental deltas (src/incr)
// land here, and ImageWriter freezes it.  Nothing resolves against a RouteSet: the
// consumers (Resolver, the routedb tool, routedbd, mailers) read the frozen image.

#ifndef SRC_ROUTE_DB_ROUTE_DB_H_
#define SRC_ROUTE_DB_ROUTE_DB_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/route_printer.h"
#include "src/graph/cost.h"
#include "src/support/diag.h"
#include "src/support/interner.h"

namespace pathalias {

struct Route {
  NameId name = kNoName;  // key handle; the RouteSet's interner owns the bytes
  std::string route;      // printf format string with one %s
  Cost cost = -1;         // -1: unknown (the file had no cost column)
};

// A non-owning route record: what the Resolver traffics in.  The image-backed
// FrozenRouteSet produces it as a view into the mmap'd route-byte pool, so resolution
// is allocation-free.
struct RouteView {
  NameId name = kNoName;   // key handle; kNoName means "no route known"
  std::string_view route;  // printf format string with one %s; owned by the route set
  Cost cost = -1;

  bool ok() const { return name != kNoName; }
  explicit operator bool() const { return ok(); }
};

// One incremental route change: insert `name`'s route or replace it wholesale.
struct RouteUpsert {
  // pathalint: allow(R1): wire-format delta record — carries the bytes exactly
  // as they arrived (file/stream) until ApplyDelta interns them.
  std::string name;
  std::string route;
  Cost cost = -1;
};

class RouteSet {
 public:
  RouteSet() = default;

  // Later adds of the same name replace earlier ones.
  void Add(std::string_view name, std::string_view route, Cost cost = -1);

  // Applies an incremental delta — erase `erases`' routes, insert-or-replace
  // `upserts` — and returns the NameIds (this set's interner space; stable across
  // every delta, which is what keys cache invalidation) of the routes that actually
  // changed.  A no-op upsert (identical route and cost) is not reported; an erase of
  // an absent name is ignored.  Erased names keep their NameId: the interner never
  // forgets, so a later re-add changes the same id it changed before.
  std::vector<NameId> ApplyDelta(std::span<const RouteUpsert> upserts,
                                 std::span<const std::string> erases);

  static RouteSet FromEntries(const std::vector<RouteEntry>& entries);

  // Parses pathalias output.  Accepts both layouts: "name<TAB>route" and
  // "cost<TAB>name<TAB>route" (a leading integer column switches to the latter).
  static RouteSet FromText(std::string_view text, Diagnostics* diag = nullptr);

  std::string ToText(bool include_costs) const;

  // ToText in name order regardless of insertion history: the canonical form the
  // incremental pipeline's golden-equivalence checks compare byte-for-byte (an
  // incrementally patched set and a rebuilt one order their routes_ differently).
  std::string ToSortedText(bool include_costs) const;

  // Exact-name lookup; nullptr if absent.  The string_view form hashes once against
  // the interner; the NameId form is a pure array index.
  const Route* Find(std::string_view name) const;
  const Route* Find(NameId id) const {
    return id < by_name_.size() && by_name_[id] != 0 ? &routes_[by_name_[id] - 1] : nullptr;
  }

  // The interner every route key (and its precomputed domain-suffix chain) lives in.
  const NameInterner& names() const { return names_; }
  std::string_view NameOf(const Route& route) const { return names_.View(route.name); }

  const std::vector<Route>& routes() const { return routes_; }
  size_t size() const { return routes_.size(); }
  bool empty() const { return routes_.empty(); }

 private:
  NameInterner names_;
  std::vector<Route> routes_;
  std::vector<uint32_t> by_name_;  // NameId -> route index + 1 (0 = no route)
};

}  // namespace pathalias

#endif  // SRC_ROUTE_DB_ROUTE_DB_H_
