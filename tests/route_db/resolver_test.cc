#include "src/exec/resolver.h"

#include <gtest/gtest.h>

#include "src/image/frozen_route_set.h"

namespace pathalias {
namespace {

// The paper's route list for the domain examples (§Output, Domains).
RouteSet PaperRoutes() {
  RouteSet set;
  set.Add("seismo", "seismo!%s", 100);
  set.Add(".edu", "seismo!%s", 100);
  set.Add("duke", "duke!%s", 500);
  set.Add("phs", "duke!phs!%s", 800);
  set.Add("ucbvax", "duke!research!ucbvax!%s", 3300);
  return set;
}

// The routes frozen into an in-memory image, and a resolver over it.
struct Db {
  explicit Db(const RouteSet& routes, ResolveOptions options = {})
      : image(FrozenImage::Freeze(routes)), resolver(&image.routes(), options) {}
  const NameInterner& names() const { return image.routes().names(); }

  FrozenImage image;
  Resolver resolver;
};

TEST(Resolver, ExactHostMatch) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("phs!honey");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.route, "duke!phs!honey");
  EXPECT_EQ(r.via, "phs");
}

TEST(Resolver, PaperDomainExampleExactEntry) {
  // "a mailer first searches the route list for caip.rutgers.edu; if found, the mailer
  // uses argument pleasant, producing seismo!caip.rutgers.edu!pleasant."
  RouteSet routes = PaperRoutes();
  routes.Add("caip.rutgers.edu", "seismo!caip.rutgers.edu!%s", 195);
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("caip.rutgers.edu!pleasant");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, "caip.rutgers.edu");
  EXPECT_EQ(r.argument, "pleasant");
  EXPECT_EQ(r.route, "seismo!caip.rutgers.edu!pleasant");
}

TEST(Resolver, PaperDomainExampleSuffixFallback) {
  // "Otherwise, a search for .rutgers.edu, followed by a search for .edu, produces
  // seismo!%s ... The argument here is not pleasant (as it were), it is
  // caip.rutgers.edu!pleasant, producing seismo!caip.rutgers.edu!pleasant, as before."
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("caip.rutgers.edu!pleasant");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, ".edu");
  EXPECT_EQ(r.argument, "caip.rutgers.edu!pleasant");
  EXPECT_EQ(r.route, "seismo!caip.rutgers.edu!pleasant");
}

TEST(Resolver, LongestDomainSuffixWinsOverShorter) {
  RouteSet routes = PaperRoutes();
  routes.Add(".rutgers.edu", "caip!%s", 50);
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("blue.rutgers.edu!user");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, ".rutgers.edu");
  EXPECT_EQ(r.route, "caip!blue.rutgers.edu!user");
}

TEST(Resolver, Rfc822FormResolvesLikeBangForm) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("pleasant@caip.rutgers.edu");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.route, "seismo!caip.rutgers.edu!pleasant");
}

TEST(Resolver, LocalUserNeedsNoRoute) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("honey");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.route, "honey");
  EXPECT_EQ(r.via, "<local>");
}

TEST(Resolver, UnknownHostFails) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("nowhere!user");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nowhere"), std::string::npos);
}

TEST(Resolver, EmptyAddressFails) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  EXPECT_FALSE(resolver.Resolve("").ok);
}

TEST(Resolver, FirstHopHandsRemainderToFirstRelay) {
  // A USENET reply path: route to the first site, pass the rest through.
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("duke!research!ucbvax!mcvax!piet");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, "duke");
  EXPECT_EQ(r.route, "duke!research!ucbvax!mcvax!piet");
}

TEST(Resolver, RightmostKnownShortensThePath) {
  // "should it search for the right-most host known to its database? The latter
  // approach can result in significant savings."
  ResolveOptions options;
  options.optimize = ResolveOptions::Optimize::kRightmostKnown;
  RouteSet routes = PaperRoutes();
  Db db(routes, options);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("duke!research!ucbvax!mcvax!piet");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, "ucbvax");
  EXPECT_EQ(r.route, "duke!research!ucbvax!mcvax!piet")
      << "same final string here, but produced from the ucbvax route";
  EXPECT_EQ(r.argument, "mcvax!piet");

  // Where the database has a better route to the rightmost host, the saving shows.
  Resolution shortcut = resolver.Resolve("ucbvax!phs!user");
  ASSERT_TRUE(shortcut.ok);
  EXPECT_EQ(shortcut.via, "phs");
  EXPECT_EQ(shortcut.route, "duke!phs!user");
}

TEST(Resolver, LoopTestsSurviveOptimization) {
  // "Loop tests are a time-honored UUCP tradition, and an overly-enthusiastic
  // optimizer can eliminate them altogether."
  ResolveOptions options;
  options.optimize = ResolveOptions::Optimize::kRightmostKnown;
  RouteSet routes = PaperRoutes();
  Db db(routes, options);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("duke!phs!duke!user");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, "duke") << "path repeats duke: no rightmost rewriting";
  EXPECT_EQ(r.route, "duke!phs!duke!user");
}

TEST(Resolver, LoopPreservationCanBeDisabled) {
  ResolveOptions options;
  options.optimize = ResolveOptions::Optimize::kRightmostKnown;
  options.preserve_loops = false;
  RouteSet routes = PaperRoutes();
  Db db(routes, options);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("duke!phs!duke!user");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, "duke");
  EXPECT_EQ(r.argument, "user") << "the loop collapses";
  EXPECT_EQ(r.route, "duke!user");
}

TEST(Resolver, RightmostFallsBackToFirstHopWhenNothingKnown) {
  ResolveOptions options;
  options.optimize = ResolveOptions::Optimize::kRightmostKnown;
  RouteSet routes = PaperRoutes();
  Db db(routes, options);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("duke!unknown1!unknown2!user");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, "duke");
}

TEST(Resolver, DomainSuffixOnRelayInsideRewrittenPath) {
  ResolveOptions options;
  options.optimize = ResolveOptions::Optimize::kRightmostKnown;
  RouteSet routes = PaperRoutes();
  Db db(routes, options);
  const Resolver& resolver = db.resolver;
  // Rightmost known is the domain member (via .edu suffix).
  Resolution r = resolver.Resolve("duke!caip.rutgers.edu!user");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, ".edu");
  EXPECT_EQ(r.route, "seismo!caip.rutgers.edu!user");
}

TEST(Resolver, LookupReturnsViewIntoRouteSetStorage) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  std::string_view matched;
  RouteView route = resolver.Lookup("caip.rutgers.edu", &matched);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(matched, ".edu");
  EXPECT_EQ(matched.data(), db.names().View(db.names().Find(".edu")).data())
      << "matched key is the interner's copy, not an allocation";
}

TEST(Resolver, BatchMixedQueries) {
  RouteSet routes = PaperRoutes();
  routes.Add(".rutgers.edu", "caip!%s", 50);
  Db db(routes);
  const Resolver& resolver = db.resolver;
  std::vector<std::string_view> hosts = {
      "phs",                // exact hit
      "caip.rutgers.edu",   // longest-suffix fallback (.rutgers.edu beats .edu)
      "blue.cs.wisc.edu",   // suffix fallback through an un-interned middle suffix
      "nowhere",            // miss, undotted
      "miss.example.com",   // miss, dotted (the walk must drain cleanly)
      ".edu",               // a domain key queried directly: exact, not a suffix match
  };
  std::vector<BatchLookup> results(hosts.size());
  EXPECT_EQ(resolver.ResolveBatch(hosts, results), 4u);

  ASSERT_TRUE(results[0].route.ok());
  EXPECT_EQ(db.names().View(results[0].via), "phs");
  EXPECT_FALSE(results[0].suffix_match);

  ASSERT_TRUE(results[1].route.ok());
  EXPECT_EQ(db.names().View(results[1].via), ".rutgers.edu");
  EXPECT_TRUE(results[1].suffix_match);

  ASSERT_TRUE(results[2].route.ok());
  EXPECT_EQ(db.names().View(results[2].via), ".edu");
  EXPECT_TRUE(results[2].suffix_match);

  EXPECT_FALSE(results[3].route.ok());
  EXPECT_FALSE(results[4].route.ok());

  ASSERT_TRUE(results[5].route.ok());
  EXPECT_EQ(db.names().View(results[5].via), ".edu");
  EXPECT_FALSE(results[5].suffix_match);
}

TEST(Resolver, BatchAgreesWithSingleLookupOnEveryQuery) {
  RouteSet routes = PaperRoutes();
  routes.Add(".rutgers.edu", "caip!%s", 50);
  Db db(routes);
  const Resolver& resolver = db.resolver;
  std::vector<std::string_view> hosts = {"seismo", "duke",    "phs",  "ucbvax",
                                         ".edu",   "a.b.edu", "x.y.z", "ghost"};
  std::vector<BatchLookup> results(hosts.size());
  resolver.ResolveBatch(hosts, results);
  for (size_t i = 0; i < hosts.size(); ++i) {
    std::string_view matched;
    RouteView single = resolver.Lookup(hosts[i], &matched);
    EXPECT_EQ(single.ok(), results[i].route.ok()) << hosts[i];
    EXPECT_EQ(single.name, results[i].route.name) << hosts[i];
    EXPECT_EQ(single.route, results[i].route.route) << hosts[i];
    if (single.ok()) {
      EXPECT_EQ(matched, db.names().View(results[i].via)) << hosts[i];
    }
  }
}

TEST(Resolver, BatchEmptySpansResolveNothing) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  std::vector<BatchLookup> results;
  EXPECT_EQ(resolver.ResolveBatch({}, results), 0u);
  std::vector<std::string_view> hosts = {"phs"};
  EXPECT_EQ(resolver.ResolveBatch(hosts, {}), 0u)
      << "an empty results span means nothing can be written, so nothing resolves";
}

TEST(Resolver, BatchTruncatesToTheShorterResultsSpan) {
  // The documented contract: only the common prefix of the two spans is processed —
  // never a write past results.end().
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  std::vector<std::string_view> hosts = {"phs", "nowhere", "duke"};
  std::vector<BatchLookup> results(2);
  EXPECT_EQ(resolver.ResolveBatch(hosts, results), 1u)
      << "duke is beyond the results span and must not be counted";
  EXPECT_TRUE(results[0].route.ok());
  EXPECT_FALSE(results[1].route.ok());
}

TEST(Resolver, BatchWhitespaceAndEmptyQueriesAreMisses) {
  // Queries with no routable shape — empty, all blanks, a lone dot — are plain
  // misses, not errors, and must drain the walk cleanly.
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  std::vector<std::string_view> hosts = {"", " ", "  \t ", ".", "phs"};
  std::vector<BatchLookup> results(hosts.size());
  EXPECT_EQ(resolver.ResolveBatch(hosts, results), 1u);
  for (size_t i = 0; i + 1 < hosts.size(); ++i) {
    EXPECT_FALSE(results[i].route.ok()) << "query '" << hosts[i] << "'";
    EXPECT_EQ(results[i].via, kNoName) << "query '" << hosts[i] << "'";
  }
  EXPECT_TRUE(results.back().route.ok());
}

TEST(Resolver, LookupOneAgreesWithBatchSlots) {
  RouteSet routes = PaperRoutes();
  routes.Add(".rutgers.edu", "caip!%s", 50);
  Db db(routes);
  const Resolver& resolver = db.resolver;
  std::vector<std::string_view> hosts = {"phs", "caip.rutgers.edu", "x.y.z", ".edu", " "};
  std::vector<BatchLookup> results(hosts.size());
  resolver.ResolveBatch(hosts, results);
  for (size_t i = 0; i < hosts.size(); ++i) {
    BatchLookup one = resolver.LookupOne(hosts[i]);
    EXPECT_EQ(one.route.name, results[i].route.name) << hosts[i];
    EXPECT_EQ(one.via, results[i].via) << hosts[i];
    EXPECT_EQ(one.suffix_match, results[i].suffix_match) << hosts[i];
  }
}

TEST(Resolver, PercentFormResolves) {
  RouteSet routes = PaperRoutes();
  Db db(routes);
  const Resolver& resolver = db.resolver;
  Resolution r = resolver.Resolve("user%phs@duke");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.via, "duke");
  EXPECT_EQ(r.route, "duke!phs!user");
}

}  // namespace
}  // namespace pathalias
