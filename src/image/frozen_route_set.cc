#include "src/image/frozen_route_set.h"

#include <cstdio>
#include <cstdlib>

#include "src/image/image_writer.h"

namespace pathalias {

std::optional<FrozenImage> FrozenImage::Open(const std::string& path,
                                             image::ImageView::Verify verify,
                                             std::string* error, bool readahead) {
  std::optional<image::MappedFile> file = image::MappedFile::Open(path, readahead);
  if (!file) {
    if (error != nullptr) {
      *error = "cannot open or read " + path;
    }
    return std::nullopt;
  }
  std::optional<image::ImageView> view = image::ImageView::Adopt(file->bytes(), verify, error);
  if (!view) {
    return std::nullopt;
  }
  return FrozenImage(std::move(*file), *view);
}

FrozenImage FrozenImage::Freeze(const RouteSet& routes) {
  image::MappedFile file = image::MappedFile::FromBuffer(image::ImageWriter::Freeze(routes));
  std::string error;
  std::optional<image::ImageView> view =
      image::ImageView::Adopt(file.bytes(), image::ImageView::Verify::kChecksum, &error);
  if (!view) {
    std::fprintf(stderr, "FrozenImage::Freeze: the writer's image failed to verify: %s\n",
                 error.c_str());
    std::abort();
  }
  return FrozenImage(std::move(file), *view);
}

}  // namespace pathalias
