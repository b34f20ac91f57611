// The sharded batch engine's contract: byte-identical to the serial resolver at any
// thread count, with the result cache on or off.

#include "src/exec/batch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/exec/resolver.h"
#include "src/exec/result_cache.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace exec {
namespace {

// A route set big enough that every shard of an 8-way engine sees real traffic:
// hosts across several domains, domain keys, and a deep suffix chain.
RouteSet BuildRoutes() {
  RouteSet set;
  set.Add("seismo", "seismo!%s", 100);
  set.Add(".edu", "seismo!%s", 100);
  set.Add(".rutgers.edu", "caip!%s", 50);
  set.Add(".cs.wisc.edu", "spool!%s", 60);
  set.Add("duke", "duke!%s", 500);
  set.Add("phs", "duke!phs!%s", 800);
  set.Add("ucbvax", "duke!research!ucbvax!%s", 3300);
  for (int i = 0; i < 200; ++i) {
    std::string host = "host" + std::to_string(i);
    set.Add(host, host + "!%s", 100 + i);
    std::string member = "m" + std::to_string(i) + ".dept" + std::to_string(i % 7) + ".edu";
    set.Add(member, "seismo!" + member + "!%s", 200 + i);
  }
  return set;
}

// The mixed workload every test resolves: exact hits, suffix fallbacks through
// interned and un-interned names, misses, and queries with no routable shape.
std::vector<std::string> BuildQueryPool() {
  std::vector<std::string> pool;
  for (int i = 0; i < 200; ++i) {
    pool.push_back("host" + std::to_string(i));
    pool.push_back("m" + std::to_string(i) + ".dept" + std::to_string(i % 7) + ".edu");
    pool.push_back("stranger" + std::to_string(i) + ".rutgers.edu");
    pool.push_back("miss" + std::to_string(i) + ".unrouted.example");
  }
  pool.push_back("phs");
  pool.push_back(".edu");          // a domain key queried directly
  pool.push_back(".rutgers.edu");  // likewise, via an interned id
  pool.push_back("nowhere");       // undotted miss
  pool.push_back("");              // no routable shape at all
  pool.push_back("   ");           // whitespace only
  return pool;
}

std::vector<std::string_view> Views(const std::vector<std::string>& pool) {
  return std::vector<std::string_view>(pool.begin(), pool.end());
}

// Every observable field must match, including the view identity: cached results
// must alias the image's storage, never a copy.
void ExpectSameResults(const std::vector<BatchLookup>& expected,
                       const std::vector<BatchLookup>& actual,
                       const std::vector<std::string_view>& queries) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].route.name, actual[i].route.name) << queries[i];
    EXPECT_EQ(expected[i].route.cost, actual[i].route.cost) << queries[i];
    EXPECT_EQ(expected[i].via, actual[i].via) << queries[i];
    EXPECT_EQ(expected[i].suffix_match, actual[i].suffix_match) << queries[i];
    EXPECT_EQ(expected[i].route.route.data(), actual[i].route.route.data())
        << queries[i] << ": the route view must alias the same storage";
    EXPECT_EQ(expected[i].route.route.size(), actual[i].route.route.size()) << queries[i];
  }
}

TEST(BatchEngine, MatchesSerialResolverAtEveryThreadAndCacheSetting) {
  FrozenImage image = FrozenImage::Freeze(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  std::vector<std::string> pool = BuildQueryPool();
  std::vector<std::string_view> queries = Views(pool);

  Resolver resolver(&routes, ResolveOptions{});
  std::vector<BatchLookup> serial(queries.size());
  size_t serial_resolved = resolver.ResolveBatch(queries, serial);
  ASSERT_GT(serial_resolved, 0u);

  for (int threads : {1, 2, 4, 8}) {
    for (size_t cache_entries : {size_t{0}, size_t{8}, size_t{4096}}) {
      BatchEngineOptions options;
      options.threads = threads;
      options.cache_entries = cache_entries;
      BatchEngine engine(&routes, options);
      std::vector<BatchLookup> parallel(queries.size());
      size_t resolved = engine.ResolveBatch(queries, parallel);
      EXPECT_EQ(resolved, serial_resolved)
          << threads << " threads, " << cache_entries << " cache entries";
      ExpectSameResults(serial, parallel, queries);
    }
  }
}

// The flush-free serving update: a long-lived frozen engine adopts a refrozen image
// and invalidates only the dirty ids.  Clean destinations may keep serving cached
// views into the OLD mapping (kept alive, as the contract requires); dirty ones
// must come back fresh.
TEST(BatchEngine, AdoptRoutesServesFreshDirtyRoutesWithoutFlushingCleanOnes) {
  RouteSet routes = BuildRoutes();
  FrozenImage image_a = FrozenImage::Freeze(routes);

  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 1024;
  BatchEngine engine(&image_a.routes(), options);

  std::vector<std::string> pool = BuildQueryPool();
  std::vector<std::string_view> queries = Views(pool);
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);  // warm every shard cache
  ASSERT_GT(engine.stats().cache_lookups, 0u);

  // The maintained RouteSet absorbs an edit (stable ids) and refreezes.
  std::vector<RouteUpsert> upserts;
  upserts.push_back({"host7", "rerouted!host7!%s", 9999});
  std::vector<NameId> dirty_live = routes.ApplyDelta(upserts, {});
  ASSERT_EQ(dirty_live.size(), 1u);
  FrozenImage image_b = FrozenImage::Freeze(routes);

  // The image id space tracks the RouteSet's: translate by name (here they agree).
  NameId dirty_id = image_b.routes().names().Find("host7");
  ASSERT_NE(dirty_id, kNoName);
  std::vector<NameId> dirty = {dirty_id};
  engine.AdoptRoutes(&image_b.routes(), dirty);  // image A stays alive above — required

  std::vector<BatchLookup> after(queries.size());
  engine.ResolveBatch(queries, after);
  Resolver reference(&image_b.routes(), ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  reference.ResolveBatch(queries, expected);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(after[i].route.ok(), expected[i].route.ok()) << queries[i];
    EXPECT_EQ(after[i].route.route, expected[i].route.route) << queries[i];
  }
}

TEST(BatchEngine, NinetyPercentRepeatedDestinationsIdenticalWithCacheOnAndOff) {
  // The satellite case: a delivery scan where 90% of the batch is a hot set of
  // repeated destinations.  The cache must change the speed, never the bytes.
  std::vector<std::string> hot = {"phs",     "duke",    "ucbvax",
                                  "host7",   "host42",  "m3.dept3.edu",
                                  "host100", "host199", "m150.dept3.edu",
                                  "stranger0.rutgers.edu"};
  std::vector<std::string> pool;
  for (int i = 0; i < 5000; ++i) {
    if (i % 10 == 9) {
      pool.push_back("cold" + std::to_string(i) + ".unrouted.example");
    } else {
      // i + i/10 de-syncs the pick from the 90% filter so every hot name occurs.
      pool.push_back(hot[static_cast<size_t>(i + i / 10) % hot.size()]);
    }
  }
  std::vector<std::string_view> queries = Views(pool);

  FrozenImage image = FrozenImage::Freeze(BuildRoutes());
  BatchEngineOptions cached_options;
  cached_options.threads = 4;
  cached_options.cache_entries = 64;
  BatchEngine cached(&image.routes(), cached_options);
  BatchEngineOptions uncached_options;
  uncached_options.threads = 4;
  BatchEngine uncached(&image.routes(), uncached_options);

  std::vector<BatchLookup> with_cache(queries.size());
  std::vector<BatchLookup> without_cache(queries.size());
  size_t resolved_cached = cached.ResolveBatch(queries, with_cache);
  size_t resolved_uncached = uncached.ResolveBatch(queries, without_cache);
  EXPECT_EQ(resolved_cached, resolved_uncached);
  ExpectSameResults(without_cache, with_cache, queries);

  // The interned hot set (9 of the 10 hot names) dominates, so the hit rate must too.
  // The tenth hot name is a stranger: never cached, resolved by suffix walk each time.
  EXPECT_GT(cached.stats().hit_rate(), 0.95);
  EXPECT_EQ(uncached.stats().cache_lookups, 0u);
}

TEST(BatchEngine, CachesNegativeResults) {
  RouteSet routes;
  routes.Add("x.y.zz", "x.y.zz!%s", 10);  // interns ".y.zz" and ".zz", both routeless
  FrozenImage image = FrozenImage::Freeze(routes);
  BatchEngineOptions options;
  options.cache_entries = 16;
  BatchEngine engine(&image.routes(), options);

  std::vector<std::string_view> queries = {".y.zz", ".y.zz", ".y.zz"};
  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, results), 0u);
  for (const BatchLookup& result : results) {
    EXPECT_FALSE(result.route.ok());
  }
  EXPECT_EQ(engine.stats().cache_lookups, 3u);
  EXPECT_EQ(engine.stats().cache_hits, 2u) << "a cached miss is as final as a cached route";
}

TEST(BatchEngine, CachePersistsAcrossBatches) {
  FrozenImage image = FrozenImage::Freeze(BuildRoutes());
  BatchEngineOptions options;
  options.threads = 2;
  options.cache_entries = 64;
  BatchEngine engine(&image.routes(), options);

  std::vector<std::string_view> queries = {"phs", "duke", "ucbvax"};
  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, results), 3u);
  uint64_t hits_after_first = engine.stats().cache_hits;
  EXPECT_EQ(engine.ResolveBatch(queries, results), 3u);
  EXPECT_EQ(engine.stats().cache_hits, hits_after_first + 3)
      << "a server loop's second batch runs entirely from the warm cache";
}

TEST(BatchEngine, StrangersAreNeverCached) {
  FrozenImage image = FrozenImage::Freeze(BuildRoutes());
  BatchEngineOptions options;
  options.cache_entries = 64;
  BatchEngine engine(&image.routes(), options);
  std::vector<std::string_view> queries = {"s1.rutgers.edu", "s1.rutgers.edu",
                                           "nope.example", "nope.example"};
  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, results), 2u);
  EXPECT_EQ(engine.stats().cache_lookups, 0u)
      << "no NameId, no cache key: strangers bypass the cache entirely";
}

TEST(BatchEngine, EmptyBatchAndTruncatedResultsSpan) {
  FrozenImage image = FrozenImage::Freeze(BuildRoutes());
  BatchEngineOptions options;
  options.threads = 4;
  options.cache_entries = 16;
  BatchEngine engine(&image.routes(), options);

  std::vector<BatchLookup> none;
  EXPECT_EQ(engine.ResolveBatch({}, none), 0u);

  // A results span shorter than the hosts span truncates the batch (the documented
  // ResolveBatch contract), in the engine exactly as in the serial resolver.
  std::vector<std::string_view> queries = {"phs", "duke", "ucbvax"};
  std::vector<BatchLookup> short_results(2);
  EXPECT_EQ(engine.ResolveBatch(queries, short_results), 2u);
  EXPECT_TRUE(short_results[0].route.ok());
  EXPECT_TRUE(short_results[1].route.ok());
}

TEST(BatchEngine, ZeroThreadsMeansHardwareWidth) {
  FrozenImage image = FrozenImage::Freeze(BuildRoutes());
  BatchEngineOptions options;
  options.threads = 0;
  BatchEngine engine(&image.routes(), options);
  EXPECT_GE(engine.shards(), 1);
  std::vector<std::string_view> queries = {"phs"};
  std::vector<BatchLookup> results(1);
  EXPECT_EQ(engine.ResolveBatch(queries, results), 1u);
}

TEST(ResultCache, ClockEvictsUnreferencedWaysFirst) {
  ResultCache cache(4);  // one set of four ways
  ASSERT_EQ(cache.capacity(), 4u);
  BatchLookup value;
  value.via = 7;
  BatchLookup out;

  // Ids 0..3 fill the only set (whatever order the scramble maps them in).
  for (NameId id = 0; id < 4; ++id) {
    cache.Put(id, value);
  }
  for (NameId id = 0; id < 4; ++id) {
    EXPECT_TRUE(cache.Get(id, &out));
  }
  // All four are armed; inserting a fifth forces the hand all the way around: it
  // disarms everything, evicts exactly one resident, and the other three survive.
  cache.Put(4, value);
  EXPECT_TRUE(cache.Get(4, &out));
  int survivors = 0;
  for (NameId id = 0; id < 4; ++id) {
    if (cache.Get(id, &out)) {
      ++survivors;
    }
  }
  EXPECT_EQ(survivors, 3);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, RoundsCapacityAndDisablesAtZero) {
  EXPECT_FALSE(ResultCache(0).enabled());
  EXPECT_EQ(ResultCache(1).capacity(), 4u);
  EXPECT_EQ(ResultCache(5).capacity(), 8u);
  EXPECT_EQ(ResultCache(4096).capacity(), 4096u);
}

// A small topology with cacheable non-route keys: interning "a.b.org" also
// interns ".b.org" and ".org", so querying ".b.org" produces a cacheable
// suffix-match entry (via ".org") and querying ".z.net" a cacheable miss.
RouteSet BuildChainRoutes(const char* org_route) {
  RouteSet set;
  set.Add("gate", "gate!%s", 5);
  set.Add(".org", org_route, 10);
  set.Add("a.b.org", "gate!a.b.org!%s", 15);
  set.Add("c.z.net", "gate!c.z.net!%s", 20);
  return set;
}

// Regression: a cached suffix-match result depends on its VIA's route, not just
// its own key.  Key-only invalidation left ".b.org"'s cached entry (via ".org")
// stale when only ".org" changed; the chain-closure pass must condemn it.
TEST(BatchEngine, AdoptRoutesCondemnsSuffixMatchWhoseViaChanged) {
  FrozenImage v1 = FrozenImage::Freeze(BuildChainRoutes("gate!%s"));
  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 64;
  BatchEngine engine(&v1.routes(), options);

  std::vector<std::string_view> query = {".b.org"};
  std::vector<BatchLookup> result(1);
  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);
  ASSERT_TRUE(result[0].suffix_match);
  ASSERT_EQ(result[0].route.route, "gate!%s");
  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);  // now served from cache
  ASSERT_GT(engine.stats().cache_hits, 0u);

  // Same Add order → same id assignment; only ".org"'s route differs.
  FrozenImage v2 = FrozenImage::Freeze(BuildChainRoutes("spool!%s"));
  NameId org = v2.routes().names().Find(".org");
  ASSERT_NE(org, kNoName);
  std::vector<NameId> dirty = {org};
  engine.AdoptRoutes(&v2.routes(), dirty);

  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);
  EXPECT_EQ(result[0].route.route, "spool!%s")
      << "cached suffix match survived although its via's route changed";
}

// Regression: a cached MISS depends on every id of its suffix chain staying
// routeless.  When ".net" gains a route, the cached miss for ".z.net" must go.
TEST(BatchEngine, AdoptRoutesCondemnsCachedMissWhoseDomainGainedARoute) {
  FrozenImage v1 = FrozenImage::Freeze(BuildChainRoutes("gate!%s"));
  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 64;
  BatchEngine engine(&v1.routes(), options);

  std::vector<std::string_view> query = {".z.net"};
  std::vector<BatchLookup> result(1);
  ASSERT_EQ(engine.ResolveBatch(query, result), 0u);  // miss, and cached as one
  ASSERT_EQ(engine.ResolveBatch(query, result), 0u);
  ASSERT_GT(engine.stats().cache_hits, 0u);

  RouteSet routes_v2 = BuildChainRoutes("gate!%s");
  routes_v2.Add(".net", "gate!%s", 1);  // ".net" was already interned: same id, new route
  FrozenImage v2 = FrozenImage::Freeze(routes_v2);
  NameId net = v2.routes().names().Find(".net");
  ASSERT_NE(net, kNoName);
  ASSERT_EQ(net, v1.routes().names().Find(".net")) << "id stability premise broken";
  std::vector<NameId> dirty = {net};
  engine.AdoptRoutes(&v2.routes(), dirty);

  ASSERT_EQ(engine.ResolveBatch(query, result), 1u)
      << "cached miss survived although its domain gained a route";
  EXPECT_TRUE(result[0].suffix_match);
  EXPECT_EQ(result[0].route.route, "gate!%s");
}

// After AdoptRoutes, NOTHING in the engine may reference the old source: clean
// surviving cache entries are re-homed onto the fresh storage.  Clobbering the
// old image's bytes (the moral equivalent of munmap) must not change any result.
TEST(BatchEngine, AdoptRoutesReleasesEveryReferenceToTheOldImage) {
  // Image A is adopted from a buffer this test owns, so it can clobber the bytes.
  std::string image_a = image::ImageWriter::Freeze(BuildChainRoutes("gate!%s"));
  std::string error;
  auto view_a = image::ImageView::Adopt(image_a, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(view_a.has_value()) << error;
  FrozenRouteSet frozen_a(*view_a);

  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 64;
  BatchEngine engine(&frozen_a, options);

  std::vector<std::string_view> queries = {"a.b.org", ".b.org", ".z.net", "gate"};
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);  // warm the cache with all entry kinds

  FrozenImage image_b = FrozenImage::Freeze(BuildChainRoutes("spool!%s"));
  const FrozenRouteSet& frozen_b = image_b.routes();
  NameId org = frozen_b.names().Find(".org");
  ASSERT_NE(org, kNoName);
  std::vector<NameId> dirty = {org};
  engine.AdoptRoutes(&frozen_b, dirty);

  // "Unmap" image A.  Any surviving view into it now reads garbage, which the
  // byte-compare below (and ASan's container annotations) would catch.
  std::fill(image_a.begin(), image_a.end(), '\0');

  std::vector<BatchLookup> after(queries.size());
  engine.ResolveBatch(queries, after);
  Resolver reference(&frozen_b, ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  reference.ResolveBatch(queries, expected);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(after[i].route.ok(), expected[i].route.ok()) << queries[i];
    EXPECT_EQ(after[i].route.route, expected[i].route.route) << queries[i];
    if (after[i].route.ok()) {
      // And the views must alias image B's storage, not a copy of it.
      EXPECT_EQ(after[i].route.route.data(),
                frozen_b.FindRouteView(after[i].via).route.data())
          << queries[i];
    }
  }
}

// The drain counters: started moves before the work, completed after, so a mark
// taken mid-traffic is reached exactly when every covered batch has returned.
TEST(BatchEngine, BatchCountersBracketEveryResolve) {
  FrozenImage image = FrozenImage::Freeze(BuildChainRoutes("gate!%s"));
  BatchEngine engine(&image.routes(), BatchEngineOptions{});
  EXPECT_EQ(engine.batches_started(), 0u);
  EXPECT_EQ(engine.batches_completed(), 0u);
  std::vector<std::string_view> query = {"gate"};
  std::vector<BatchLookup> result(1);
  engine.ResolveBatch(query, result);
  engine.ResolveBatch(query, result);
  EXPECT_EQ(engine.batches_started(), 2u);
  EXPECT_EQ(engine.batches_completed(), 2u);
}

}  // namespace
}  // namespace exec
}  // namespace pathalias
