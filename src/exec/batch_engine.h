// Sharded parallel batch resolution over a frozen route image.
//
// BatchEngine is the serving-path front end to Resolver::ResolveBatch: it
// partitions a batch of destination queries into per-thread shards, resolves every
// shard in parallel on a small fixed ThreadPool, memoizes interned-destination
// results in a per-shard ResultCache, and writes each result back to its original
// position — so the output is byte-identical to the serial resolver, at any thread
// count, with the cache on or off.
//
// Sharding policy: with caching on, shard = mix(hash of the case-normalized query
// bytes) % shards.  Hashing the bytes rather than the NameId keeps the partition
// pass allocation-free and probe-free (no interner lookup until the owning shard
// runs), while still sending every occurrence of a destination to the same shard —
// which is what makes the per-shard caches both coherent without locks (single
// owner) and effective (a hot destination's result is always in the cache that is
// asked).  With caching off, affinity buys nothing, so shards are balanced
// contiguous index ranges: no partition pass, sequential writeback, same bytes.
//
// Determinism: results[i] depends only on hosts[i] and the image.  Shards
// write disjoint result slots, misses included, so the merge-back is the partition
// itself and the resolved/suffix-match counts equal the serial path's exactly.
//
// Concurrency contract: the image is the shared object — any number of engines (or
// raw resolvers) may read one FrozenRouteSet mapping concurrently.  One engine
// instance, however, serves one calling thread at a time: ResolveBatch reuses the
// engine's partition and cache state.

#ifndef SRC_EXEC_BATCH_ENGINE_H_
#define SRC_EXEC_BATCH_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/exec/resolver.h"
#include "src/exec/result_cache.h"
#include "src/exec/thread_pool.h"
#include "src/image/frozen_route_set.h"

namespace pathalias {
namespace exec {

struct BatchEngineOptions {
  int threads = 1;           // shard/thread count; 0 means "all hardware threads"
  size_t cache_entries = 0;  // per-shard result cache capacity; 0 disables caching
  ResolveOptions resolve;    // forwarded to the underlying resolver
};

// Cumulative counters across every batch the engine has served.
struct BatchEngineStats {
  uint64_t queries = 0;
  uint64_t resolved = 0;
  uint64_t cache_lookups = 0;  // interned queries that consulted a shard cache
  uint64_t cache_hits = 0;     // ... and were answered from it

  double hit_rate() const {
    return cache_lookups == 0 ? 0.0
                              : static_cast<double>(cache_hits) /
                                    static_cast<double>(cache_lookups);
  }
};

class BatchEngine {
 public:
  BatchEngine(const FrozenRouteSet* routes, BatchEngineOptions options);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  // Same contract as Resolver::ResolveBatch — resolves hosts[i] into results[i]
  // over the common prefix of the two spans and returns the number that matched —
  // with the same results, bit for bit.  Caches persist across calls: a server loop
  // keeps its hot set warm from one batch to the next.
  size_t ResolveBatch(std::span<const std::string_view> hosts,
                      std::span<BatchLookup> results);

  // Revokes cached results invalidated by a change to the `dirty` route keys,
  // across every shard.  Because a cached result for destination `d` depends on
  // d's whole domain-suffix chain (LookupInterned walks it), revocation condemns
  // every cached KEY whose chain intersects `dirty` — not just the dirty ids
  // themselves — so a suffix-match result whose via-route changed, and a cached
  // miss whose domain just gained a route, both come back fresh.  Safe
  // (data-race-free; TSan-enforced) to call from another thread WHILE a batch is
  // in flight, but then only BEST-EFFORT: a query already past its cache probe
  // may serve the pre-update result one last time, and a miss being resolved
  // concurrently may Put a pre-update result back AFTER the revocation, where it
  // stays until something invalidates or evicts it again.  A hard cut therefore
  // requires invalidating with no batch in flight — which is exactly what
  // AdoptRoutes (the intended update entry point) does after swapping images.
  // No-op when caching is off.
  void InvalidateRoutes(std::span<const NameId> dirty);

  // The sound update flow: switches the engine to `fresh` routes, revokes every
  // cached entry whose suffix chain intersects the `dirty` ids
  // (MapBuilder::dirty_route_ids() after a Refreeze), and RE-HOMES every surviving
  // entry's views onto the fresh image's storage (identical bytes — the entry
  // survived precisely because nothing on its chain changed).  After this returns
  // the engine holds NO references to the old image: the caller may retire (and
  // unmap) it as soon as every batch that started before the swap has drained —
  // poll batches_completed() against a batches_started() mark taken at swap time
  // (src/net's RolloverController does exactly this).  Requirements: call between
  // batches on the ResolveBatch caller thread (what makes the revocation a hard
  // cut), and fresh must share the old image's NameId assignment for surviving
  // names (images refrozen from one RouteSet maintained by ApplyDelta do — ids
  // are append-only).
  void AdoptRoutes(const FrozenRouteSet* fresh, std::span<const NameId> dirty);

  // Drain-then-retire instrumentation: monotonic counts of ResolveBatch calls
  // entered and returned.  started is incremented before any work, completed
  // after all of it (release; read with acquire), so once
  // batches_completed() >= a mark taken from batches_started(), every batch the
  // mark covers has fully drained and resources those batches could have read —
  // an old mapping after AdoptRoutes — are retirable.  Readable from any thread.
  uint64_t batches_started() const {
    // memory_order: acquire — pairs with the acq_rel increment in ResolveBatch
    // so a mark read here happens-after everything the counted batches did.
    return batches_started_.load(std::memory_order_acquire);
  }
  uint64_t batches_completed() const {
    // memory_order: acquire — the retire gate: once this reaches a started
    // mark, the old mapping's reads are all visible-before here and unmapping
    // it cannot race them (RolloverController's drain loop relies on this).
    return batches_completed_.load(std::memory_order_acquire);
  }

  int shards() const { return shards_; }
  size_t cache_entries_per_shard() const {
    return caches_.empty() ? 0 : caches_.front().capacity();
  }
  const BatchEngineStats& stats() const { return stats_; }

 private:
  // The partition hash: FNV-1a over the query bytes, case-folded iff the image's
  // interner folds, then Fibonacci-mixed so low-entropy tails still spread.
  uint32_t ShardOf(std::string_view host) const;

  // The cached shard loop, run as a depth-2 software pipeline: while query j's
  // walk (or cache copy) completes, query j+1's interner Find has already run and
  // ResultCache::Begin has prefetched its set's line — so a hit's set read lands
  // in cache and its tag is never recomputed.  `index_of(pos)` maps loop position
  // to result slot (identity for the single-shard path, the shard's index vector
  // when partitioned).  Returns the number resolved.
  template <typename IndexFn>
  size_t ResolveCachedRun(std::span<const std::string_view> hosts,
                          std::span<BatchLookup> results, ResultCache* cache,
                          size_t n, IndexFn index_of) const;

  // ResolveBatch minus the drain counters (the public entry wraps it).
  size_t ResolveBatchInner(std::span<const std::string_view> hosts,
                           std::span<BatchLookup> results);

  // True when any id on `id`'s domain-suffix chain (per `names`) is in the
  // sorted `dirty` list — the invalidation predicate AdoptRoutes and
  // InvalidateRoutes share.
  bool ChainTouchesDirty(NameId id, std::span<const NameId> sorted_dirty) const;

  const FrozenRouteSet* routes_;
  BatchEngineOptions options_;
  Resolver resolver_;
  int shards_;
  bool fold_case_;
  std::unique_ptr<ThreadPool> pool_;        // null when shards_ == 1
  std::vector<ResultCache> caches_;         // one per shard; empty when disabled
  std::vector<std::vector<uint32_t>> shard_indices_;  // reused partition buffers
  std::vector<size_t> shard_resolved_;      // per-shard hit counts, one write each
  BatchEngineStats stats_;
  std::atomic<uint64_t> batches_started_{0};
  std::atomic<uint64_t> batches_completed_{0};
};

// The name perfbench/trace.cc spells for the same class.
using FrozenBatchEngine = BatchEngine;

}  // namespace exec
}  // namespace pathalias

#endif  // SRC_EXEC_BATCH_ENGINE_H_
