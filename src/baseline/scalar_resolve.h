// The one-query-at-a-time batch resolve loop: the golden reference for the
// software-pipelined Resolver::ResolveBatchPipelined.
//
// Each lookup's dependent-miss chain — hash, probe slot, interner entry, by-name
// index, route record — stalls to completion before the next query starts.  The
// pipeline must produce the same results, slot for slot and view for view, at every
// window size; the resolver tests, the incremental fuzz test and bench_resolver hold
// it to that against this loop.

#ifndef SRC_BASELINE_SCALAR_RESOLVE_H_
#define SRC_BASELINE_SCALAR_RESOLVE_H_

#include <span>
#include <string_view>

#include "src/exec/resolver.h"

namespace pathalias {

// Resolves hosts[i] into results[i] with resolver.LookupOne, over the common prefix
// of the two spans (the ResolveBatch contract), and returns the number that matched.
size_t ResolveBatchScalar(const Resolver& resolver, std::span<const std::string_view> hosts,
                          std::span<BatchLookup> results);

}  // namespace pathalias

#endif  // SRC_BASELINE_SCALAR_RESOLVE_H_
