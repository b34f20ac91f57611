#include "src/image/image_writer.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/image/image_format.h"
#include "src/support/durable_file.h"
#include "src/support/fnv1a.h"
#include "src/support/primes.h"

namespace pathalias {
namespace image {
namespace {

void AppendPadding(std::string& out, size_t alignment_target) {
  while (out.size() < alignment_target) {
    out.push_back('\0');
  }
}

template <typename T>
void AppendRecords(std::string& out, const std::vector<T>& records) {
  if (!records.empty()) {
    out.append(reinterpret_cast<const char*>(records.data()), records.size() * sizeof(T));
  }
}

}  // namespace

std::string ImageWriter::Freeze(const RouteSet& routes, uint64_t generation) {
  const NameInterner& names = routes.names();
  const uint32_t name_count = static_cast<uint32_t>(names.size());
  const uint32_t route_count = static_cast<uint32_t>(routes.size());

  // Name pool + entries, in id order (ids are the on-disk keys; order is identity).
  std::string name_bytes;
  std::vector<NameInterner::FrozenEntry> entries;
  entries.reserve(name_count);
  for (uint32_t id = 0; id < name_count; ++id) {
    std::string_view name = names.View(id);
    NameInterner::FrozenEntry entry;
    entry.hash = names.HashOf(id);
    entry.bytes_offset = static_cast<uint32_t>(name_bytes.size());
    entry.length = static_cast<uint32_t>(name.size());
    entry.suffix = names.Suffix(id);
    entry.reserved = 0;
    entries.push_back(entry);
    name_bytes.append(name);
    name_bytes.push_back('\0');
  }
  assert(name_bytes.size() <= UINT32_MAX && "name pool exceeds the u32 offset space");

  // Probe table, rebuilt from the recorded hashes with the interner's own insertion
  // scheme (double hashing, stride T-2-(k mod T-2)).  Rebuilding rather than copying
  // keeps freezing independent of the live table's fate (StealTable) and packs the
  // frozen table at its own high-water mark regardless of growth history.
  uint64_t capacity = NextPrime(
      static_cast<uint64_t>(static_cast<double>(name_count) / NameInterner::kHighWater) + 2);
  if (capacity < 5) {
    capacity = 5;
  }
  std::vector<NameInterner::FrozenSlot> slots(capacity,
                                              NameInterner::FrozenSlot{kNoName, 0});
  for (uint32_t id = 0; id < name_count; ++id) {
    uint64_t k = entries[id].hash;
    uint64_t index = k % capacity;
    uint64_t stride = capacity - 2 - (k % (capacity - 2));
    while (slots[index].id != kNoName) {
      index += stride;
      if (index >= capacity) {
        index -= capacity;
      }
    }
    slots[index] = NameInterner::FrozenSlot{id, static_cast<uint32_t>(k)};
  }

  // Route records + pool, and the NameId -> route index.
  std::string route_bytes;
  std::vector<FrozenRoute> frozen_routes;
  frozen_routes.reserve(route_count);
  std::vector<uint32_t> by_name(name_count, 0);
  for (const Route& route : routes.routes()) {
    FrozenRoute record;
    record.name = route.name;
    record.route_offset = static_cast<uint32_t>(route_bytes.size());
    record.route_length = static_cast<uint32_t>(route.route.size());
    record.reserved = 0;
    record.cost = route.cost;
    by_name[route.name] = static_cast<uint32_t>(frozen_routes.size()) + 1;
    frozen_routes.push_back(record);
    route_bytes.append(route.route);
    route_bytes.push_back('\0');
  }
  assert(route_bytes.size() <= UINT32_MAX && "route pool exceeds the u32 offset space");

  // Lay out sections: fixed-width records first (all 8-aligned), byte pools last.
  ImageHeader header;
  std::memset(&header, 0, sizeof(header));
  header.magic = kMagic;
  header.version = kVersion;
  header.endian = kEndianMarker;
  header.flags = names.fold_case() ? kFlagFoldCase : 0;
  header.flags |= kFlagSuffixChains;  // Intern always records chains for dotted names
  header.name_count = name_count;
  header.route_count = route_count;
  header.table_capacity = capacity;
  header.generation = generation;

  size_t offset = sizeof(ImageHeader);
  header.names_offset = offset;
  offset = AlignUp8(offset + entries.size() * sizeof(NameInterner::FrozenEntry));
  header.slots_offset = offset;
  offset = AlignUp8(offset + slots.size() * sizeof(NameInterner::FrozenSlot));
  header.routes_offset = offset;
  offset = AlignUp8(offset + frozen_routes.size() * sizeof(FrozenRoute));
  header.by_name_offset = offset;
  offset = AlignUp8(offset + by_name.size() * sizeof(uint32_t));
  header.name_bytes_offset = offset;
  header.name_bytes_size = name_bytes.size();
  offset = AlignUp8(offset + name_bytes.size());
  header.route_bytes_offset = offset;
  header.route_bytes_size = route_bytes.size();
  offset += route_bytes.size();
  header.file_size = offset;

  std::string out;
  out.reserve(offset);
  out.append(sizeof(ImageHeader), '\0');  // checksum is stamped after the payload
  AppendRecords(out, entries);
  AppendPadding(out, header.slots_offset);
  AppendRecords(out, slots);
  AppendPadding(out, header.routes_offset);
  AppendRecords(out, frozen_routes);
  AppendPadding(out, header.by_name_offset);
  AppendRecords(out, by_name);
  AppendPadding(out, header.name_bytes_offset);
  out.append(name_bytes);
  AppendPadding(out, header.route_bytes_offset);
  out.append(route_bytes);
  assert(out.size() == header.file_size);

  // Checksum the whole image — header included, with the checksum field held at zero —
  // so a flipped header bit (flags, counts, offsets) is as detectable as payload rot.
  header.checksum = 0;
  std::memcpy(out.data(), &header, sizeof(header));
  header.checksum = support::Fnv1a(out);
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

bool ImageWriter::WriteFile(const RouteSet& routes, const std::string& path,
                            uint64_t generation, std::string* error) {
  std::string buffer = Freeze(routes, generation);
  return support::PublishFileDurably(path, buffer, "image.publish", error);
}

bool ImageWriter::Refreeze(const RouteSet& routes, const std::string& path,
                           uint64_t generation, std::string* error) {
  // The durable publish IS the refreeze discipline: freeze to `path + ".tmp"`,
  // fsync, rename over `path`, fsync the directory.  Concurrent readers keep
  // their old mapping; a crash anywhere leaves old-or-new, never torn.
  return WriteFile(routes, path, generation, error);
}

}  // namespace image
}  // namespace pathalias
