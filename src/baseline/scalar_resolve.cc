#include "src/baseline/scalar_resolve.h"

#include <algorithm>

namespace pathalias {

size_t ResolveBatchScalar(const Resolver& resolver, std::span<const std::string_view> hosts,
                          std::span<BatchLookup> results) {
  size_t resolved = 0;
  size_t count = std::min(hosts.size(), results.size());
  for (size_t i = 0; i < count; ++i) {
    results[i] = resolver.LookupOne(hosts[i]);
    if (results[i].route.ok()) {
      ++resolved;
    }
  }
  return resolved;
}

}  // namespace pathalias
