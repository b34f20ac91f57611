// FrozenRouteSet: the image-backed route database.
//
// The consumer-facing half of the frozen image subsystem: a read-only route set
// whose names, probe table, and routes all live in a validated .pari buffer.  It is
// what the Resolver (src/exec) reads, so ResolveBatch runs directly against the
// mapping: open + mmap + resolve, no re-parsing, no re-interning, no allocation.
//
// FrozenImage bundles the pieces for the common case: open a file, validate it, own
// the mapping, expose the FrozenRouteSet.  FrozenImage::Freeze is the in-memory form
// of the same thing, for routes built in process.

#ifndef SRC_IMAGE_FROZEN_ROUTE_SET_H_
#define SRC_IMAGE_FROZEN_ROUTE_SET_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/image/image_view.h"
#include "src/image/mapped_file.h"
#include "src/route_db/route_db.h"
#include "src/support/interner.h"

namespace pathalias {

class FrozenRouteSet {
 public:
  // Adopts a validated view.  The buffer behind `view` must outlive this object.
  explicit FrozenRouteSet(const image::ImageView& view)
      : names_(NameInterner::AdoptFrozen(view.interner_view())),
        routes_(view.routes()),
        by_name_(view.by_name()),
        route_bytes_(view.route_bytes()),
        name_count_(view.name_count()),
        route_count_(view.route_count()) {}

  // The interner every route key (and its domain-suffix chain) lives in, and the
  // route of one key; a default RouteView means "no route".
  const NameInterner& names() const { return names_; }
  RouteView FindRouteView(NameId id) const {
    if (id >= name_count_ || by_name_[id] == 0) {
      return RouteView{};
    }
    const image::FrozenRoute& route = routes_[by_name_[id] - 1];
    return RouteView{route.name,
                     std::string_view(route_bytes_ + route.route_offset, route.route_length),
                     route.cost};
  }
  RouteView FindRouteView(std::string_view name) const {
    NameId id = names_.Find(name);
    return id == kNoName ? RouteView{} : FindRouteView(id);
  }

  // The pipelined resolver's FindRouteView split: the by-name index slot, then —
  // once HasRoute says yes — the frozen route record, each prefetched one pipeline
  // round before it is read.
  bool HasRoute(NameId id) const { return id < name_count_ && by_name_[id] != 0; }
  void PrefetchFind(NameId id) const {
    if (id < name_count_) {
      __builtin_prefetch(by_name_ + id);
    }
  }
  void PrefetchRoute(NameId id) const {
    if (id < name_count_ && by_name_[id] != 0) {
      __builtin_prefetch(routes_ + (by_name_[id] - 1));
    }
  }

  // Route `index` in frozen order (the RouteSet's insertion order), for iteration.
  RouteView RouteAt(uint32_t index) const {
    const image::FrozenRoute& route = routes_[index];
    return RouteView{route.name,
                     std::string_view(route_bytes_ + route.route_offset, route.route_length),
                     route.cost};
  }
  std::string_view NameOf(const RouteView& route) const { return names_.View(route.name); }

  size_t size() const { return route_count_; }
  bool empty() const { return route_count_ == 0; }

 private:
  NameInterner names_;  // frozen (read-only) mode: points into the image buffer
  const image::FrozenRoute* routes_;
  const uint32_t* by_name_;
  const char* route_bytes_;
  uint32_t name_count_;
  uint32_t route_count_;
};

// Owns an open .pari file end to end: the mapping, the validated view, the route set.
// Movable; the mapping's address (and thus every pointer in routes()) survives moves.
class FrozenImage {
 public:
  // `readahead` forwards to MappedFile::Open — ask for it when the image is about
  // to serve a bulk batch (routedb batch does), skip it for one-off gets.
  static std::optional<FrozenImage> Open(
      const std::string& path,
      image::ImageView::Verify verify = image::ImageView::Verify::kStructure,
      std::string* error = nullptr, bool readahead = false);

  // Freezes `routes` into an owned heap buffer and adopts it with a full checksum
  // check: the in-memory form of ImageWriter::WriteFile + Open, for code that builds
  // its routes in process (tests, benchmarks, examples).  The buffer the writer
  // produced always verifies, so this never fails.
  static FrozenImage Freeze(const RouteSet& routes);

  const FrozenRouteSet& routes() const { return set_; }
  const image::ImageView& view() const { return view_; }
  bool memory_mapped() const { return file_.memory_mapped(); }

 private:
  FrozenImage(image::MappedFile file, const image::ImageView& view)
      : file_(std::move(file)), view_(view), set_(view_) {}

  image::MappedFile file_;
  image::ImageView view_;
  FrozenRouteSet set_;
};

}  // namespace pathalias

#endif  // SRC_IMAGE_FROZEN_ROUTE_SET_H_
