#include "src/image/image_writer.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/image/image_format.h"
#include "src/support/durable_file.h"
#include "src/support/fastmod.h"
#include "src/support/primes.h"

namespace pathalias {
namespace image {
namespace {

// Copies `record` to byte `offset` of `out`.  memcpy, because a section's records sit
// in a char buffer; the section offsets keep them 8-aligned for the readers.
template <typename T>
void Put(std::string& out, size_t offset, const T& record) {
  std::memcpy(out.data() + offset, &record, sizeof(T));
}

}  // namespace

std::string ImageWriter::Freeze(const RouteSet& routes, uint64_t generation) {
  const NameInterner& names = routes.names();
  const uint32_t name_count = static_cast<uint32_t>(names.size());
  const uint32_t route_count = static_cast<uint32_t>(routes.size());

  // The pool sizes come first, so every section can be written straight into its
  // place in the output buffer.
  size_t name_bytes_size = 0;
  for (uint32_t id = 0; id < name_count; ++id) {
    name_bytes_size += names.View(id).size() + 1;
  }
  size_t route_bytes_size = 0;
  for (const Route& route : routes.routes()) {
    route_bytes_size += route.route.size() + 1;
  }
  assert(name_bytes_size <= UINT32_MAX && "name pool exceeds the u32 offset space");
  assert(route_bytes_size <= UINT32_MAX && "route pool exceeds the u32 offset space");

  uint64_t capacity = NextPrime(
      static_cast<uint64_t>(static_cast<double>(name_count) / NameInterner::kHighWater) + 2);
  if (capacity < 5) {
    capacity = 5;
  }

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
  offset = AlignUp8(offset + name_count * sizeof(NameInterner::FrozenEntry));
  header.slots_offset = offset;
  offset = AlignUp8(offset + capacity * sizeof(NameInterner::FrozenSlot));
  header.routes_offset = offset;
  offset = AlignUp8(offset + route_count * sizeof(FrozenRoute));
  header.by_name_offset = offset;
  offset = AlignUp8(offset + name_count * sizeof(uint32_t));
  header.name_bytes_offset = offset;
  header.name_bytes_size = name_bytes_size;
  offset = AlignUp8(offset + name_bytes_size);
  header.route_bytes_offset = offset;
  header.route_bytes_size = route_bytes_size;
  offset += route_bytes_size;
  header.file_size = offset;

  // Zero-filled: padding, reserved fields, pool terminators and by-name misses are
  // all zero bytes, so only the non-zero data below needs writing.
  std::string out(header.file_size, '\0');

  // Name entries + pool, in id order (ids are the on-disk keys; order is identity),
  // and the probe table, rebuilt from the recorded hashes with the interner's own
  // insertion scheme (double hashing, stride T-2-(k mod T-2)).  Rebuilding rather
  // than copying keeps freezing independent of the live table's fate (StealTable)
  // and packs the frozen table at its own high-water mark regardless of growth
  // history.
  const FastMod slot_of(capacity);
  const FastMod stride_of(capacity - 2);
  std::vector<NameInterner::FrozenSlot> slots(capacity, NameInterner::FrozenSlot{kNoName, 0});
  uint32_t name_pool_offset = 0;
  for (uint32_t id = 0; id < name_count; ++id) {
    std::string_view name = names.View(id);
    NameInterner::FrozenEntry entry;
    entry.hash = names.HashOf(id);
    entry.bytes_offset = name_pool_offset;
    entry.length = static_cast<uint32_t>(name.size());
    entry.suffix = names.Suffix(id);
    entry.reserved = 0;
    Put(out, header.names_offset + id * sizeof(entry), entry);
    std::memcpy(out.data() + header.name_bytes_offset + name_pool_offset, name.data(),
                name.size());
    name_pool_offset += entry.length + 1;

    const uint64_t k = entry.hash;
    uint64_t index = slot_of.Mod(k);
    const uint64_t stride = capacity - 2 - stride_of.Mod(k);
    while (slots[index].id != kNoName) {
      index += stride;
      if (index >= capacity) {
        index -= capacity;
      }
    }
    slots[index] = NameInterner::FrozenSlot{id, static_cast<uint32_t>(k)};
  }
  std::memcpy(out.data() + header.slots_offset, slots.data(),
              slots.size() * sizeof(NameInterner::FrozenSlot));

  // Route records + pool, and the NameId -> route index.
  uint32_t route_pool_offset = 0;
  for (uint32_t i = 0; i < route_count; ++i) {
    const Route& route = routes.routes()[i];
    FrozenRoute record;
    record.name = route.name;
    record.route_offset = route_pool_offset;
    record.route_length = static_cast<uint32_t>(route.route.size());
    record.reserved = 0;
    record.cost = route.cost;
    Put(out, header.routes_offset + i * sizeof(record), record);
    Put(out, header.by_name_offset + route.name * sizeof(uint32_t), i + 1);
    std::memcpy(out.data() + header.route_bytes_offset + route_pool_offset,
                route.route.data(), route.route.size());
    route_pool_offset += record.route_length + 1;
  }

  Put(out, 0, header);
  header.checksum = ImageChecksum(out);
  Put(out, 0, header);
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
