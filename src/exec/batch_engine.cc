#include "src/exec/batch_engine.h"

#include <algorithm>

namespace pathalias {
namespace exec {

BatchEngine::BatchEngine(const FrozenRouteSet* routes, BatchEngineOptions options)
    : routes_(routes),
      options_(options),
      resolver_(routes, options.resolve),
      shards_(options.threads == 0 ? ThreadPool::HardwareWidth()
                                   : std::max(1, options.threads)),
      fold_case_(routes->names().fold_case()) {
  if (shards_ > 1) {
    pool_ = std::make_unique<ThreadPool>(shards_);
  }
  if (options_.cache_entries > 0) {
    caches_.reserve(static_cast<size_t>(shards_));
    for (int shard = 0; shard < shards_; ++shard) {
      caches_.emplace_back(options_.cache_entries);
    }
  }
  shard_indices_.resize(static_cast<size_t>(shards_));
  shard_resolved_.resize(static_cast<size_t>(shards_));
}

BatchEngine::~BatchEngine() = default;

uint32_t BatchEngine::ShardOf(std::string_view host) const {
  // FNV-1a, folded to match the interner's normalization so "Duke" and "duke" shard
  // together exactly when they intern together.
  uint32_t hash = 2166136261u;
  if (fold_case_) {
    for (char c : host) {
      hash = (hash ^ static_cast<unsigned char>(NameInterner::FoldChar(c))) * 16777619u;
    }
  } else {
    for (unsigned char c : host) {
      hash = (hash ^ c) * 16777619u;
    }
  }
  // Fibonacci mix before the modulo: FNV's low bits are weak for short keys.
  return static_cast<uint32_t>((static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >> 33) %
         static_cast<uint32_t>(shards_);
}

template <typename IndexFn>
size_t BatchEngine::ResolveCachedRun(std::span<const std::string_view> hosts,
                                     std::span<BatchLookup> results, ResultCache* cache,
                                     size_t n, IndexFn index_of) const {
  size_t resolved = 0;
  // Depth-2 pipeline: `stage` runs one query ahead of retirement, so a hit's
  // cache-set line has the whole previous query's walk to arrive.  Find is const
  // and effect-free, so running it early changes nothing observable.
  NameId ahead_id = kNoName;
  ResultCache::Handle ahead_handle;
  auto stage = [&](size_t pos) {
    ahead_id = routes_->names().Find(hosts[index_of(pos)]);
    if (ahead_id != kNoName) {
      ahead_handle = cache->Begin(ahead_id);
    }
  };
  if (n > 0) {
    stage(0);
  }
  for (size_t pos = 0; pos < n; ++pos) {
    size_t index = index_of(pos);
    NameId id = ahead_id;
    ResultCache::Handle handle = ahead_handle;
    if (pos + 1 < n) {
      stage(pos + 1);
    }
    BatchLookup* out = &results[index];
    if (id == kNoName) {
      *out = resolver_.LookupStranger(hosts[index]);
    } else if (!cache->Get(handle, id, out)) {
      *out = resolver_.LookupInterned(id);
      cache->Put(handle, id, *out);
    }
    if (out->route.ok()) {
      ++resolved;
    }
  }
  return resolved;
}

size_t BatchEngine::ResolveBatch(std::span<const std::string_view> hosts,
                                 std::span<BatchLookup> results) {
  // memory_order: acq_rel — the completed_ increment must release every read
  // this batch performed on the (possibly old) image, so that a retirer
  // who acquires batches_completed() >= mark knows the mapping is unreferenced
  // and may unmap it; started_ matches so the counter pair itself is ordered.
  batches_started_.fetch_add(1, std::memory_order_acq_rel);
  size_t resolved = ResolveBatchInner(hosts, results);
  // memory_order: acq_rel — see batches_started_ above (release half is the
  // load-bearing part; see also batches_completed() in batch_engine.h).
  batches_completed_.fetch_add(1, std::memory_order_acq_rel);
  return resolved;
}

size_t BatchEngine::ResolveBatchInner(std::span<const std::string_view> hosts,
                                      std::span<BatchLookup> results) {
  size_t count = std::min(hosts.size(), results.size());
  stats_.queries += count;
  if (shards_ == 1 && caches_.empty()) {
    // Nothing to partition and nothing to memoize: the pipelined resolver IS this
    // path — count lookups in one span, window-K in flight.
    size_t resolved = resolver_.ResolveBatch(hosts.first(count), results.first(count));
    stats_.resolved += resolved;
    return resolved;
  }

  if (shards_ == 1) {
    // One shard with the cache on: no partition pass, just the cached walk in order.
    ResultCache* cache = &caches_.front();
    size_t resolved =
        ResolveCachedRun(hosts, results, cache, count, [](size_t pos) { return pos; });
    stats_.resolved += resolved;
    stats_.cache_lookups = cache->stats().lookups;
    stats_.cache_hits = cache->stats().hits;
    return resolved;
  }

  if (caches_.empty()) {
    // Cache off: destination affinity buys nothing, so skip the hash-partition pass
    // entirely — balanced contiguous ranges resolve the same slots to the same bytes
    // with sequential writeback instead of a scatter.  Each range runs the resolver's
    // software pipeline over its own subspan.
    auto run_range = [&](int shard) {
      size_t lo = count * static_cast<size_t>(shard) / static_cast<size_t>(shards_);
      size_t hi = count * (static_cast<size_t>(shard) + 1) / static_cast<size_t>(shards_);
      shard_resolved_[static_cast<size_t>(shard)] =
          resolver_.ResolveBatch(hosts.subspan(lo, hi - lo), results.subspan(lo, hi - lo));
    };
    pool_->Run(shards_, run_range);  // shards_ > 1 here, so the pool exists
  } else {
    // Cache on: partition by destination so each shard's cache has a single owner
    // and always gets asked the destinations it cached.
    for (std::vector<uint32_t>& indices : shard_indices_) {
      indices.clear();
    }
    for (size_t i = 0; i < count; ++i) {
      shard_indices_[ShardOf(hosts[i])].push_back(static_cast<uint32_t>(i));
    }
    auto run_shard = [&](int shard) {
      const std::vector<uint32_t>& indices = shard_indices_[static_cast<size_t>(shard)];
      shard_resolved_[static_cast<size_t>(shard)] =
          ResolveCachedRun(hosts, results, &caches_[static_cast<size_t>(shard)],
                           indices.size(), [&indices](size_t pos) { return indices[pos]; });
    };
    pool_->Run(shards_, run_shard);
  }

  size_t resolved = 0;
  for (size_t shard = 0; shard < static_cast<size_t>(shards_); ++shard) {
    resolved += shard_resolved_[shard];
  }
  stats_.resolved += resolved;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  for (const ResultCache& cache : caches_) {
    lookups += cache.stats().lookups;
    hits += cache.stats().hits;
  }
  stats_.cache_lookups = lookups;  // ResultCache stats are already cumulative
  stats_.cache_hits = hits;
  return resolved;
}

bool BatchEngine::ChainTouchesDirty(NameId id, std::span<const NameId> sorted_dirty) const {
  // A cached result for `id` is LookupInterned(id): id's own route, else the
  // first routed id on its precomputed suffix chain.  Any dirty id anywhere on
  // the chain can change that outcome (via-route rewritten, a closer suffix
  // gaining a route, the exact route disappearing), so the whole chain decides.
  for (NameId s = id; s != kNoName; s = routes_->names().Suffix(s)) {
    if (std::binary_search(sorted_dirty.begin(), sorted_dirty.end(), s)) {
      return true;
    }
  }
  return false;
}

void BatchEngine::InvalidateRoutes(std::span<const NameId> dirty) {
  if (caches_.empty() || dirty.empty()) {
    return;
  }
  std::vector<NameId> sorted(dirty.begin(), dirty.end());
  std::sort(sorted.begin(), sorted.end());
  for (ResultCache& cache : caches_) {
    // Full key scan (capacity × chain walk): dirty sets are small and updates are
    // rare next to lookups; correctness of the suffix closure is worth the scan.
    cache.InvalidateKeysWhere([&](NameId key) { return ChainTouchesDirty(key, sorted); });
  }
}

void BatchEngine::AdoptRoutes(const FrozenRouteSet* fresh, std::span<const NameId> dirty) {
  routes_ = fresh;
  resolver_ = Resolver(fresh, options_.resolve);
  fold_case_ = fresh->names().fold_case();
  std::vector<NameId> sorted(dirty.begin(), dirty.end());
  std::sort(sorted.begin(), sorted.end());
  const uint32_t fresh_names = static_cast<uint32_t>(fresh->names().size());
  for (ResultCache& cache : caches_) {
    cache.VisitEntries([&](NameId key, BatchLookup* value) {
      // Revoke everything the dirty set's suffix closure condemns (the chain is
      // walked in the FRESH interner: ids are append-only, so a newly interned
      // suffix that just gained a route is on the fresh chain and condemns the
      // stale cached miss below it).
      if (key >= fresh_names || ChainTouchesDirty(key, sorted)) {
        return false;
      }
      if (!value->route.ok()) {
        return true;  // a cached miss views nothing; nothing to re-home
      }
      if (value->via >= fresh_names) {
        return false;  // defensive: a via the fresh image does not know
      }
      RouteView fresh_view = routes_->FindRouteView(value->via);
      if (!fresh_view.ok()) {
        return false;  // defensive: via lost its route without being marked dirty
      }
      // The surviving entry's chain is clean, so the fresh bytes are identical —
      // re-pointing the views is what releases the old mapping.
      value->route = fresh_view;
      return true;
    });
  }
}

}  // namespace exec
}  // namespace pathalias
