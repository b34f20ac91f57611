// The pipelined batch path's contract: ResolveBatchPipelined is byte-identical to
// ResolveBatchScalar (src/baseline) at EVERY window size, for every query shape the
// stranger walk can meet — leading dots, trailing dots, consecutive dots, single
// labels, and strangers whose first interned suffix is routeless.  The scalar loop
// is the golden reference (it is the pre-pipeline ResolveBatch, kept verbatim);
// these tests are what lets the pipeline restructure the probe order, spill
// continuations, and memoize suffixes without a semantics review.

#include "src/exec/resolver.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/baseline/scalar_resolve.h"
#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace {

// Every window size worth distinguishing: degenerate (1 = scalar order, windowed
// bookkeeping), tiny, the default, the max, and an over-max value the clamp must
// absorb.
const size_t kWindows[] = {1, 2, 3, 4, 8, 16, 24, 64, 1024};

RouteSet EdgeCaseRoutes() {
  RouteSet set;
  set.Add("seismo", "seismo!%s", 100);
  set.Add(".edu", "seismo!%s", 100);
  set.Add("duke", "duke!%s", 500);
  set.Add("phs", "duke!phs!%s", 800);
  // Interns ".rutgers.edu" (routeless) on the suffix chain to ".edu": the
  // "first interned suffix has no route" shape below.
  set.Add("caip.rutgers.edu", "seismo!caip.rutgers.edu!%s", 195);
  // A fully routeless chain: ".y.zz" and ".zz" are interned, neither has a route.
  set.Add("x.y.zz", "x.y.zz!%s", 10);
  return set;
}

// Asserts results[i] from two batch runs are byte-identical — including the view
// identity: both must alias the same storage, never copies.
void ExpectIdentical(const std::vector<BatchLookup>& expected,
                     const std::vector<BatchLookup>& actual,
                     const std::vector<std::string_view>& queries, size_t window) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].route.ok(), actual[i].route.ok())
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].route.name, actual[i].route.name)
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].route.cost, actual[i].route.cost)
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].route.route.data(), actual[i].route.route.data())
        << "window " << window << " query '" << queries[i]
        << "': views must alias the same storage";
    EXPECT_EQ(expected[i].route.route.size(), actual[i].route.route.size())
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].via, actual[i].via)
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].suffix_match, actual[i].suffix_match)
        << "window " << window << " query '" << queries[i] << "'";
  }
}

// Runs the golden comparison over one image: scalar once, pipelined at every
// window in kWindows, bit-for-bit equal results and equal resolved counts.
void ExpectPipelineMatchesScalar(const FrozenRouteSet& routes,
                                 const std::vector<std::string_view>& queries) {
  Resolver resolver(&routes, ResolveOptions{});
  std::vector<BatchLookup> scalar(queries.size());
  size_t scalar_resolved = ResolveBatchScalar(resolver, queries, scalar);
  for (size_t window : kWindows) {
    std::vector<BatchLookup> pipelined(queries.size());
    size_t resolved = resolver.ResolveBatchPipelined(queries, pipelined, window);
    EXPECT_EQ(resolved, scalar_resolved) << "window " << window;
    ExpectIdentical(scalar, pipelined, queries, window);
  }
}

// --- LookupStranger edge-case semantics, pinned one query at a time ---

TEST(LookupStranger, LeadingDotQueryNeverMatchesItselfAsASuffix) {
  // ".unknown.edu" is not interned.  The walk starts at find('.', 1): the leading
  // dot is never treated as the query's own suffix, so the first probe is ".edu".
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger(".unknown.edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_TRUE(out.suffix_match);
}

TEST(LookupStranger, InternedLeadingDotQueryIsAnExactMatchNotASuffixMatch) {
  // ".edu" queried directly hits its own entry via the interned path: via is the
  // key itself and suffix_match is false (the mailer must NOT prepend the host).
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupOne(".edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_FALSE(out.suffix_match);
}

TEST(LookupStranger, TrailingDotDrainsToAMiss) {
  // "phs." is not "phs": its only dotted suffix is ".", which is not interned,
  // so the walk must drain cleanly to a miss — no wraparound, no empty probe.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  for (std::string_view query : {"phs.", "edu.", "caip.rutgers.edu."}) {
    BatchLookup out = resolver.LookupOne(query);
    EXPECT_FALSE(out.route.ok()) << query;
    EXPECT_EQ(out.via, kNoName) << query;
  }
}

TEST(LookupStranger, ConsecutiveDotsProbeEachSuffixPosition) {
  // "a..edu": the suffixes tried are "..edu" (empty label — not interned) and
  // then ".edu" (a hit).  Double dots must not short-circuit or skip positions.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupOne("a..edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_TRUE(out.suffix_match);
  // All dots, no labels: every suffix position misses.
  EXPECT_FALSE(resolver.LookupOne("...").route.ok());
}

TEST(LookupStranger, SingleLabelStrangerIsAPlainMiss) {
  // No dot after position 0 means no suffix walk at all.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("nowhere");
  EXPECT_FALSE(out.route.ok());
  EXPECT_EQ(out.via, kNoName);
  EXPECT_FALSE(out.suffix_match);
}

TEST(LookupStranger, FirstInternedSuffixRoutelessFallsThroughToShorter) {
  // "blue.rutgers.edu" is a stranger; its first interned suffix ".rutgers.edu"
  // has no route, but the chain continues to ".edu", which does.  The walk must
  // chase the chain from the first interned suffix, not re-probe shorter ones.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("blue.rutgers.edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_TRUE(out.suffix_match);
}

TEST(LookupStranger, FullyRoutelessChainIsAMiss) {
  // "w.y.zz": first interned suffix ".y.zz" is routeless and so is its chain
  // (".zz") — the walk must drain the chain and retire a miss, never loop.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("w.y.zz");
  EXPECT_FALSE(out.route.ok());
  EXPECT_EQ(out.via, kNoName);
}

TEST(LookupStranger, UninternedMiddleSuffixIsSkippedNotFatal) {
  // "m.cs.wisc.edu": ".cs.wisc.edu" and ".wisc.edu" are not interned, ".edu" is.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("m.cs.wisc.edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
}

// --- the same shapes through the pipelined path, at every window size ---

std::vector<std::string> EdgeCasePool() {
  std::vector<std::string> pool = {
      "phs",                 // exact host hit
      ".edu",                // interned domain key queried directly
      ".rutgers.edu",        // interned, routeless, chain to .edu
      ".unknown.edu",        // leading-dot stranger
      "phs.",                // trailing dot
      "edu.",                // trailing dot over a name that LOOKS like a domain
      "caip.rutgers.edu.",   // trailing dot on an interned name's bytes
      "a..edu",              // consecutive dots
      "..edu",               // leading + consecutive
      "...",                 // all dots
      ".",                   // a lone dot
      "nowhere",             // single-label stranger
      "blue.rutgers.edu",    // first interned suffix routeless, shorter routed
      "w.y.zz",              // fully routeless chain
      "m.cs.wisc.edu",       // un-interned middle suffixes
      "caip.rutgers.edu",    // interned exact
      "miss.unrouted.example",  // dotted miss, nothing interned
      "",                    // no routable shape
      " ",                   //
      "  \t ",               //
  };
  return pool;
}

TEST(ResolverPipeline, EdgeCasesMatchScalarAtEveryWindow) {
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  std::vector<std::string> pool = EdgeCasePool();
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(image.routes(), queries);
}

// The same comparison over the image as routedb and routedbd read it: written to a
// file and mmap'd, not adopted from a heap buffer.
TEST(ResolverPipeline, EdgeCasesMatchScalarOverTheFrozenBackend) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("pathalias_resolver_pipeline_" + std::to_string(getpid()) + ".pari");
  ASSERT_TRUE(image::ImageWriter::WriteFile(EdgeCaseRoutes(), path.string()));
  std::string error;
  auto image = FrozenImage::Open(path.string(), image::ImageView::Verify::kChecksum, &error);
  std::filesystem::remove(path);
  ASSERT_TRUE(image.has_value()) << error;
  std::vector<std::string> pool = EdgeCasePool();
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(image->routes(), queries);
}

// A batch big enough to arm the suffix memo (it engages at 64+ queries), with the
// repeated-domain shape the memo exists for AND the edge cases interleaved — so a
// memoized outcome must never leak onto a query whose bytes differ.
TEST(ResolverPipeline, LargeRepeatedDomainBatchMatchesScalar) {
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  std::vector<std::string> pool;
  std::vector<std::string> edges = EdgeCasePool();
  for (int i = 0; i < 120; ++i) {
    pool.push_back("stranger" + std::to_string(i) + ".rutgers.edu");
    pool.push_back("host" + std::to_string(i) + ".edu");
    pool.push_back("miss" + std::to_string(i) + ".unrouted.example");
    pool.push_back("deep" + std::to_string(i) + ".y.zz");
    pool.push_back(edges[static_cast<size_t>(i) % edges.size()]);
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ASSERT_GT(queries.size(), 64u) << "must be big enough to arm the suffix memo";
  ExpectPipelineMatchesScalar(image.routes(), queries);
}

TEST(ResolverPipeline, RandomizedQueriesMatchScalarAtEveryWindow) {
  // Seeded fuzz over a hostile alphabet: short labels from a tiny character set
  // (maximizing accidental suffix collisions), dots sprinkled anywhere including
  // the ends, plus draws from the interned names themselves.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  std::mt19937_64 rng(0x50415249u);
  const char alphabet[] = "ab.z";
  std::vector<std::string> pool;
  for (int i = 0; i < 800; ++i) {
    if (i % 7 == 0) {
      pool.push_back(i % 2 == 0 ? "caip.rutgers.edu" : ".edu");
      continue;
    }
    size_t len = 1 + rng() % 12;
    std::string q;
    for (size_t c = 0; c < len; ++c) {
      q += alphabet[rng() % (sizeof(alphabet) - 1)];
    }
    if (i % 11 == 0) {
      q += ".edu";  // force some real suffix hits into the stream
    }
    pool.push_back(std::move(q));
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(image.routes(), queries);
}

TEST(ResolverPipeline, TruncatedResultsSpanMatchesScalar) {
  // The common-prefix contract must hold identically through the pipeline.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<std::string_view> queries = {"phs", "nowhere", "duke", "seismo"};
  std::vector<BatchLookup> scalar(2);
  std::vector<BatchLookup> pipelined(2);
  size_t scalar_resolved = ResolveBatchScalar(resolver, queries, scalar);
  for (size_t window : kWindows) {
    EXPECT_EQ(resolver.ResolveBatchPipelined(queries, pipelined, window), scalar_resolved);
    ExpectIdentical(scalar, pipelined, queries, window);
  }
}

TEST(ResolverPipeline, StatsAreZeroedAndConsistent) {
  // The stats out-param is always zeroed; in PATHALIAS_PROBE_STATS builds the
  // counters must balance — every query retires exactly once — and the memo
  // must actually fire on the repeated-domain batch (otherwise the "suffix memo
  // stays byte-identical" property above is vacuous).
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<std::string> pool;
  for (int i = 0; i < 200; ++i) {
    pool.push_back("stranger" + std::to_string(i) + ".rutgers.edu");
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  std::vector<BatchLookup> results(queries.size());

  ResolvePipelineStats stats;
  stats.lookups = 0xdeadbeef;  // must be overwritten by the zeroing contract
  size_t resolved = resolver.ResolveBatchPipelined(queries, results,
                                                   Resolver::kDefaultPipelineWindow, &stats);
  EXPECT_EQ(resolved, queries.size());
  if (ResolvePipelineStats::compiled_in()) {
    EXPECT_EQ(stats.lookups, queries.size());
    EXPECT_EQ(stats.retired_hits + stats.retired_misses, queries.size())
        << "every lookup retires exactly once";
    EXPECT_GT(stats.name_probes, 0u);
    EXPECT_GT(stats.stranger_continuations, 0u);
    EXPECT_GT(stats.suffix_memo_hits, 0u)
        << "a 200-query single-domain batch must hit the suffix memo";
  } else {
    EXPECT_EQ(stats.lookups, 0u);
    EXPECT_EQ(stats.retired_hits, 0u);
    EXPECT_EQ(stats.suffix_memo_hits, 0u);
  }
}

TEST(ResolverPipeline, EmptyAndDegenerateBatches) {
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<BatchLookup> none;
  EXPECT_EQ(resolver.ResolveBatchPipelined({}, none, 8), 0u);
  std::vector<std::string_view> one = {"phs"};
  std::vector<BatchLookup> result(1);
  // Window 0 clamps to 1; a huge window clamps to kMaxPipelineWindow.
  EXPECT_EQ(resolver.ResolveBatchPipelined(one, result, 0), 1u);
  EXPECT_TRUE(result[0].route.ok());
  EXPECT_EQ(resolver.ResolveBatchPipelined(one, result, size_t{1} << 40), 1u);
  EXPECT_TRUE(result[0].route.ok());
}

TEST(ResolverPipeline, EmptyRouteSetFallsBackCleanly) {
  // An image with no names cannot be probed slot-wise; every slot must still be
  // written with a miss.  The results are pre-filled with a hit, so a path that
  // forgets to overwrite a slot fails here — through the resolver and through the
  // engine with its cache off and on.
  FrozenImage empty = FrozenImage::Freeze(RouteSet());
  ASSERT_FALSE(empty.routes().names().can_probe());
  FrozenImage full = FrozenImage::Freeze(EdgeCaseRoutes());
  const BatchLookup hit = Resolver(&full.routes(), ResolveOptions{}).LookupOne("phs");
  ASSERT_TRUE(hit.route.ok());

  std::vector<std::string_view> queries = {"phs", "a.b.c", "", "."};
  auto expect_all_misses = [&](const std::vector<BatchLookup>& results, const char* path) {
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_FALSE(results[i].route.ok()) << path << " query '" << queries[i] << "'";
      EXPECT_EQ(results[i].via, kNoName) << path << " query '" << queries[i] << "'";
      EXPECT_FALSE(results[i].suffix_match) << path << " query '" << queries[i] << "'";
    }
  };

  Resolver resolver(&empty.routes(), ResolveOptions{});
  std::vector<BatchLookup> results(queries.size(), hit);
  EXPECT_EQ(resolver.ResolveBatchPipelined(queries, results, 8), 0u);
  expect_all_misses(results, "resolver");

  for (size_t cache_entries : {size_t{0}, size_t{16}}) {
    exec::BatchEngineOptions options;
    options.cache_entries = cache_entries;
    exec::BatchEngine engine(&empty.routes(), options);
    std::vector<BatchLookup> engine_results(queries.size(), hit);
    EXPECT_EQ(engine.ResolveBatch(queries, engine_results), 0u);
    expect_all_misses(engine_results, cache_entries == 0 ? "engine, cache off"
                                                         : "engine, cache on");
  }
}

TEST(ResolverPipeline, ResolveBatchIsThePipelinedPath) {
  // ResolveBatch == ResolveBatchPipelined at the default window, by contract.
  FrozenImage image = FrozenImage::Freeze(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<std::string> pool = EdgeCasePool();
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  std::vector<BatchLookup> via_batch(queries.size());
  std::vector<BatchLookup> via_pipeline(queries.size());
  size_t a = resolver.ResolveBatch(queries, via_batch);
  size_t b = resolver.ResolveBatchPipelined(queries, via_pipeline,
                                            Resolver::kDefaultPipelineWindow);
  EXPECT_EQ(a, b);
  ExpectIdentical(via_batch, via_pipeline, queries, Resolver::kDefaultPipelineWindow);
}

}  // namespace
}  // namespace pathalias
