// Black-box tests of the command-line tools, exercising the same binaries a
// downstream user runs.  Binary locations are injected by CMake.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int status = -1;
  std::string output;  // stdout + stderr
};

CommandResult RunCommand(const std::string& command) {
  CommandResult result;
  std::string wrapped = command + " 2>&1";
  FILE* pipe = popen(wrapped.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  result.status = pclose(pipe);
  return result;
}

// What `routedb batch` must print on stdout for the well-formed `hosts`, computed
// in process over the route text the image was frozen from, parsed and frozen in
// memory.  The CLI's output from its image file is compared to it byte for byte.
std::string InProcessBatchStdout(const std::string& routes_path,
                                 const std::vector<std::string>& hosts) {
  std::ifstream in(routes_path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  FrozenImage image = FrozenImage::Freeze(RouteSet::FromText(text));
  const FrozenRouteSet& routes = image.routes();
  exec::BatchEngine engine(&routes, exec::BatchEngineOptions{});
  std::vector<std::string_view> queries(hosts.begin(), hosts.end());
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);
  std::string out;
  for (size_t i = 0; i < hosts.size(); ++i) {
    out += hosts[i] + "\t";
    out += results[i].route.ok() ? routes.names().View(results[i].via) : "*miss*";
    out += "\n";
  }
  return out;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("pathalias_cli_test_" + std::to_string(getpid()));
    fs::create_directories(dir_);
    map_path_ = (dir_ / "paper.map").string();
    std::ofstream map(map_path_);
    map << "unc\tduke(HOURLY), phs(HOURLY*4)\n"
           "duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)\n"
           "phs\tunc(HOURLY*4), duke(HOURLY)\n"
           "research\tduke(DEMAND), ucbvax(DEMAND)\n"
           "ucbvax\tresearch(DAILY)\n"
           "ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)\n";
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string map_path_;
};

TEST_F(CliTest, PathaliasReproducesPaperOutput) {
  CommandResult result =
      RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc " + map_path_);
  EXPECT_EQ(result.status, 0);
  EXPECT_EQ(result.output,
            "0\tunc\t%s\n"
            "500\tduke\tduke!%s\n"
            "800\tphs\tduke!phs!%s\n"
            "3000\tresearch\tduke!research!%s\n"
            "3300\tucbvax\tduke!research!ucbvax!%s\n"
            "3395\tmit-ai\tduke!research!ucbvax!%s@mit-ai\n"
            "3395\tstanford\tduke!research!ucbvax!%s@stanford\n");
}

TEST_F(CliTest, PathaliasReadsStdin) {
  CommandResult result =
      RunCommand("printf 'a\\tb(10)\\n' | " + std::string(PATHALIAS_BIN) + " -l a");
  EXPECT_EQ(result.status, 0);
  EXPECT_EQ(result.output, "a\t%s\nb\tb!%s\n");
}

TEST_F(CliTest, PathaliasCommandLineDeadLink) {
  // -d duke!research kills the cheap relay; research must reroute via phs... there is
  // no phs!research link, so it still goes duke!research at a penalty — instead check
  // a simpler kill: dead phs forces the direct unc route to cost 2000.
  CommandResult result = RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -d duke!phs " +
                                    map_path_);
  EXPECT_EQ(result.status, 0);
  EXPECT_NE(result.output.find("2000\tphs\tphs!%s\n"), std::string::npos) << result.output;
}

TEST_F(CliTest, PathaliasVerboseStats) {
  CommandResult result =
      RunCommand(std::string(PATHALIAS_BIN) + " -v -l unc " + map_path_ + " -o /dev/null");
  EXPECT_EQ(result.status, 0);
  EXPECT_NE(result.output.find("heap pushes"), std::string::npos);
  EXPECT_NE(result.output.find("mapped"), std::string::npos);
}

TEST_F(CliTest, PathaliasRejectsUnknownOption) {
  CommandResult result = RunCommand(std::string(PATHALIAS_BIN) + " --bogus");
  EXPECT_NE(result.status, 0);
  EXPECT_NE(result.output.find("usage"), std::string::npos);
}

TEST_F(CliTest, PathaliasOutputFile) {
  std::string out = (dir_ / "routes.txt").string();
  CommandResult result =
      RunCommand(std::string(PATHALIAS_BIN) + " -l unc -o " + out + " " + map_path_);
  EXPECT_EQ(result.status, 0);
  std::ifstream in(out);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "unc\t%s");
}

TEST_F(CliTest, RoutedbBuildGetResolveRoundTrip) {
  // pathalias builds the route text, routedb freezes it, and every query command
  // answers from the frozen image.
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  CommandResult freeze =
      RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari);
  EXPECT_EQ(freeze.status, 0);
  EXPECT_NE(freeze.output.find("7 routes"), std::string::npos) << freeze.output;

  CommandResult get = RunCommand(std::string(ROUTEDB_BIN) + " get " + pari + " phs");
  EXPECT_EQ(get.status, 0);
  EXPECT_EQ(get.output, "duke!phs!%s\n");

  CommandResult missing = RunCommand(std::string(ROUTEDB_BIN) + " get " + pari + " nowhere");
  EXPECT_NE(missing.status, 0);

  CommandResult resolve =
      RunCommand(std::string(ROUTEDB_BIN) + " resolve " + pari + " 'mit-ai!honey'");
  EXPECT_EQ(resolve.status, 0);
  EXPECT_NE(resolve.output.find("duke!research!ucbvax!honey@mit-ai"), std::string::npos)
      << resolve.output;

  std::string hosts = (dir_ / "hosts.txt").string();
  {
    std::ofstream out(hosts);
    out << "phs\nnowhere\nmit-ai\n";
  }
  CommandResult batch =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  EXPECT_EQ(batch.status, 0);
  EXPECT_NE(batch.output.find("phs\tphs"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("nowhere\t*miss*"), std::string::npos) << batch.output;
}

TEST_F(CliTest, RoutedbFreezeAndImageBackedQueries) {
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  CommandResult freeze =
      RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari);
  EXPECT_EQ(freeze.status, 0);
  EXPECT_NE(freeze.output.find("frozen"), std::string::npos) << freeze.output;

  CommandResult get = RunCommand(std::string(ROUTEDB_BIN) + " get " + pari + " phs");
  EXPECT_EQ(get.status, 0);
  EXPECT_EQ(get.output, "duke!phs!%s\n");

  CommandResult resolve =
      RunCommand(std::string(ROUTEDB_BIN) + " resolve " + pari + " 'mit-ai!honey'");
  EXPECT_EQ(resolve.status, 0);
  EXPECT_NE(resolve.output.find("duke!research!ucbvax!honey@mit-ai"), std::string::npos)
      << resolve.output;

  // The acceptance bar: batch output from the image file is byte-identical to
  // resolving the route text in process on the same query stream.
  const std::vector<std::string> queries = {"phs", "nowhere", "mit-ai",
                                            "ducati.dealers.com", "research"};
  std::string hosts = (dir_ / "hosts.txt").string();
  {
    std::ofstream out(hosts);
    for (const std::string& query : queries) {
      out << query << "\n";
    }
  }
  CommandResult image_batch = RunCommand("( " + std::string(ROUTEDB_BIN) + " batch " + pari +
                                         " " + hosts + " 2>/dev/null )");
  EXPECT_EQ(image_batch.status, 0);
  EXPECT_EQ(image_batch.output, InProcessBatchStdout(routes, queries));

  // A truncated image is rejected up front, not half-served.
  std::string broken = (dir_ / "broken.pari").string();
  {
    std::ifstream in(pari, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(broken, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  CommandResult rejected =
      RunCommand(std::string(ROUTEDB_BIN) + " get " + broken + " phs");
  EXPECT_NE(rejected.status, 0);
  EXPECT_NE(rejected.output.find("cannot read"), std::string::npos) << rejected.output;

  // The image is the only format, so there is no format flag to pass.
  CommandResult flagged =
      RunCommand(std::string(ROUTEDB_BIN) + " get --image " + pari + " phs");
  EXPECT_EQ(WEXITSTATUS(flagged.status), 2);
  EXPECT_NE(flagged.output.find("unknown option --image"), std::string::npos)
      << flagged.output;
}

TEST_F(CliTest, RoutedbBatchThreadsAndCacheFlagsNeverChangeTheBytes) {
  // The sharded engine's CLI guarantee: any --threads/--cache-entries combination
  // emits byte-identical output, stderr summary included, on a stream where 90% of
  // the queries repeat a hot set.
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari).status,
            0);

  std::string hosts = (dir_ / "hosts.txt").string();
  {
    const char* hot[] = {"phs", "duke", "research", "mit-ai", "ucbvax",
                         "phs", "duke", "research", "mit-ai"};
    std::ofstream out(hosts);
    for (int i = 0; i < 200; ++i) {
      if (i % 10 == 9) {
        out << "cold" << i << ".nowhere.example\n";  // the 10% that never repeats
      } else {
        out << hot[i % 9] << "\n";
      }
    }
  }

  CommandResult baseline =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  ASSERT_EQ(baseline.status, 0);
  EXPECT_NE(baseline.output.find("phs\tphs"), std::string::npos) << baseline.output;
  for (const char* flags : {"--threads 4", "--cache-entries 512",
                            "--threads 8 --cache-entries 512", "--threads 0"}) {
    CommandResult run = RunCommand(std::string(ROUTEDB_BIN) + " batch " + flags + " " +
                                   pari + " " + hosts);
    EXPECT_EQ(run.status, 0) << flags;
    EXPECT_EQ(run.output, baseline.output) << flags;
  }

  // --stats is the opt-in exception: it adds the execution summary on stderr.
  CommandResult stats_run = RunCommand(std::string(ROUTEDB_BIN) +
                                       " batch --threads 2 --cache-entries 512 --stats " +
                                       pari + " " + hosts);
  EXPECT_EQ(stats_run.status, 0);
  EXPECT_NE(stats_run.output.find("2 shard(s)"), std::string::npos) << stats_run.output;
  EXPECT_NE(stats_run.output.find("cache hits"), std::string::npos) << stats_run.output;

  // The flags are batch-only.
  CommandResult misuse =
      RunCommand(std::string(ROUTEDB_BIN) + " get --threads 4 " + pari + " phs");
  EXPECT_NE(misuse.status, 0);
  EXPECT_NE(misuse.output.find("only applies to batch"), std::string::npos)
      << misuse.output;
}

TEST_F(CliTest, RoutedbBatchReportsMalformedLinesAndContinues) {
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari).status,
            0);
  std::string hosts = (dir_ / "hosts.txt").string();
  {
    std::ofstream out(hosts);
    out << "phs\n"
           "not a hostname\n"   // line 2: embedded spaces
           "duke\n"
           "bad\thost\n"        // line 4: embedded tab
           "research\n";
  }
  CommandResult batch =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  EXPECT_EQ(batch.status, 0) << batch.output;
  // Every malformed line is pinpointed by number on stderr...
  EXPECT_NE(batch.output.find(hosts + ":2: malformed query"), std::string::npos)
      << batch.output;
  EXPECT_NE(batch.output.find(hosts + ":4: malformed query"), std::string::npos)
      << batch.output;
  // ...marked in the output stream at its original position (tabs sanitized so the
  // stream stays a 2-column TSV)...
  EXPECT_NE(batch.output.find("not a hostname\t*malformed*"), std::string::npos)
      << batch.output;
  EXPECT_NE(batch.output.find("bad?host\t*malformed*"), std::string::npos)
      << batch.output;
  // ...and the rest of the batch still resolves.
  EXPECT_NE(batch.output.find("phs\tphs"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("duke\tduke"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("research\tresearch"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("3/3 resolved, 2 malformed"), std::string::npos)
      << batch.output;
}

TEST_F(CliTest, MapgenSmallWritesParseableFiles) {
  std::string out_dir = (dir_ / "maps").string();
  CommandResult gen =
      RunCommand(std::string(MAPGEN_BIN) + " --small --seed 5 --dir " + out_dir);
  EXPECT_EQ(gen.status, 0);
  EXPECT_NE(gen.output.find("hosts"), std::string::npos);
  int file_count = 0;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    (void)entry;
    ++file_count;
  }
  EXPECT_EQ(file_count, 10);
  // The generated map must run through pathalias cleanly (warnings at most).
  CommandResult run =
      RunCommand(std::string(PATHALIAS_BIN) + " -o /dev/null " + out_dir + "/*.map");
  EXPECT_EQ(run.status, 0) << run.output;
}

TEST_F(CliTest, MapcheckPassesCleanMapAndFlagsBrokenOne) {
  CommandResult clean = RunCommand(std::string(MAPCHECK_BIN) + " " + map_path_);
  EXPECT_EQ(clean.status, 0) << clean.output;
  EXPECT_NE(clean.output.find("map audit:"), std::string::npos);

  std::string broken = (dir_ / "broken.map").string();
  {
    std::ofstream out(broken);
    out << "a\tb(25)\nb\ta(30000)\nhermit\n";
  }
  CommandResult flagged = RunCommand(std::string(MAPCHECK_BIN) + " -q " + broken);
  EXPECT_NE(flagged.status, 0);
  EXPECT_NE(flagged.output.find("isolated-host"), std::string::npos) << flagged.output;
  EXPECT_NE(flagged.output.find("asymmetric-cost"), std::string::npos);
}

TEST_F(CliTest, MapcheckAcceptsGeneratedMaps) {
  std::string out_dir = (dir_ / "gen").string();
  ASSERT_EQ(RunCommand(std::string(MAPGEN_BIN) + " --small --dir " + out_dir).status, 0);
  CommandResult result = RunCommand(std::string(MAPCHECK_BIN) + " " + out_dir + "/*.map");
  EXPECT_EQ(result.status, 0) << result.output;
}

TEST_F(CliTest, MapgenIsDeterministic) {
  CommandResult a = RunCommand(std::string(MAPGEN_BIN) + " --small --seed 9");
  CommandResult b = RunCommand(std::string(MAPGEN_BIN) + " --small --seed 9");
  EXPECT_EQ(a.output, b.output);
}

// Unknown-option parity: every tool must reject junk flags — single- and
// double-dash — with a usage error rather than treating them as paths.
TEST_F(CliTest, EveryToolRejectsUnknownOptions) {
  const std::pair<std::string, std::string> commands[] = {
      {"pathalias", std::string(PATHALIAS_BIN)},
      {"mapcheck", std::string(MAPCHECK_BIN)},
      {"mapgen", std::string(MAPGEN_BIN)},
      {"routedb get", std::string(ROUTEDB_BIN) + " get"},
      {"routedb batch", std::string(ROUTEDB_BIN) + " batch"},
      {"routedb update", std::string(ROUTEDB_BIN) + " update"},
      {"routedbd", std::string(ROUTEDBD_BIN)},
  };
  for (const auto& [label, command] : commands) {
    for (const char* bogus : {"--bogus", "-zz"}) {
      CommandResult result = RunCommand(command + " " + bogus + " " + map_path_ +
                                        " < /dev/null");
      EXPECT_EQ(WEXITSTATUS(result.status), 2) << label << " " << bogus;
      EXPECT_NE(result.output.find(bogus), std::string::npos)
          << label << " should name the offending flag";
    }
  }
}

// routedbd serves from one engine thread; there is no flag to ask for more.
TEST_F(CliTest, RoutedbdHasNoThreadsOption) {
  CommandResult result = RunCommand(std::string(ROUTEDBD_BIN) + " --image " +
                                    (dir_ / "routes.pari").string() +
                                    " --udp 0 --threads 2 < /dev/null");
  EXPECT_EQ(WEXITSTATUS(result.status), 2) << result.output;
  EXPECT_NE(result.output.find("unknown option --threads"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, PathaliasIncrementalMatchesPlainRunAcrossEdits) {
  fs::path state = dir_ / "state";
  std::string base = std::string(PATHALIAS_BIN) + " -c -l unc ";
  CommandResult plain = RunCommand(base + map_path_);
  CommandResult incremental =
      RunCommand(base + "--incremental " + state.string() + " " + map_path_);
  EXPECT_EQ(WEXITSTATUS(incremental.status), 0);
  EXPECT_EQ(incremental.output, plain.output);

  // Edit the map; the incremental run must re-parse and match the plain run again.
  {
    std::ofstream map(map_path_, std::ios::app);
    map << "newleaf\tduke(25)\nduke\tnewleaf(25)\n";
  }
  plain = RunCommand(base + map_path_);
  incremental = RunCommand(base + "-v --incremental " + state.string() + " " + map_path_);
  EXPECT_EQ(WEXITSTATUS(incremental.status), 0);
  EXPECT_NE(incremental.output.find("1 reparsed"), std::string::npos);
  // Strip the -v stderr tail before comparing stdout content.
  std::string body = incremental.output.substr(0, incremental.output.find("pathalias:"));
  EXPECT_EQ(body, plain.output);

  // Unchanged bytes: the state must satisfy the run without reparsing.
  incremental = RunCommand(base + "-v --incremental " + state.string() + " " + map_path_);
  EXPECT_NE(incremental.output.find("1 file(s) reused, 0 reparsed"), std::string::npos);

  // Incompatible flags are refused up front.
  CommandResult refused =
      RunCommand(base + "--two-label --incremental " + state.string() + " " + map_path_);
  EXPECT_EQ(WEXITSTATUS(refused.status), 2);
}

TEST_F(CliTest, RoutedbUpdatePatchesImageInPlace) {
  // Split map: one file per site so a 1-file edit is a genuine partial reparse.
  fs::path core = dir_ / "core.map";
  fs::path mid = dir_ / "mid.map";
  {
    std::ofstream out(core);
    out << "hub\tmid(100), far(400)\nfar\thub(400)\n";
  }
  {
    std::ofstream out(mid);
    out << "mid\thub(100), leafa(50), leafb(60)\n";
  }
  fs::path image = dir_ / "routes.pari";
  CommandResult init = RunCommand(std::string(ROUTEDB_BIN) + " update --init --local hub " +
                                  image.string() + " " + core.string() + " " + mid.string());
  EXPECT_EQ(WEXITSTATUS(init.status), 0) << init.output;
  ASSERT_TRUE(fs::exists(image));
  ASSERT_TRUE(fs::exists(dir_ / "routes.pari.state" / "manifest"));

  CommandResult before = RunCommand(std::string(ROUTEDB_BIN) + " get " +
                                    image.string() + " far");
  EXPECT_EQ(before.output, "far!%s\n");

  // Recost the far link so the route flips through mid... no — cheapen it directly.
  {
    std::ofstream out(core, std::ios::trunc);
    out << "hub\tmid(100), far(150)\nfar\thub(150)\n";
  }
  CommandResult update = RunCommand(std::string(ROUTEDB_BIN) + " update " + image.string() +
                                    " " + core.string());
  EXPECT_EQ(WEXITSTATUS(update.status), 0) << update.output;
  EXPECT_NE(update.output.find("patched"), std::string::npos) << update.output;

  // The refrozen image serves the updated cost; batch output matches a fresh
  // pathalias over the edited inputs.
  CommandResult plain = RunCommand(std::string(PATHALIAS_BIN) + " -c -l hub " +
                                   core.string() + " " + mid.string());
  EXPECT_NE(plain.output.find("150\tfar"), std::string::npos);
  CommandResult batch = RunCommand("printf 'far\\nleafa\\nnowhere\\n' | " +
                                   std::string(ROUTEDB_BIN) + " batch " +
                                   image.string());
  EXPECT_NE(batch.output.find("far\tfar"), std::string::npos);
  EXPECT_NE(batch.output.find("leafa\tleafa"), std::string::npos);
  EXPECT_NE(batch.output.find("nowhere\t*miss*"), std::string::npos);

  // Removing a file is an update too.
  CommandResult removal = RunCommand(std::string(ROUTEDB_BIN) + " update --remove " +
                                     mid.string() + " " + image.string());
  EXPECT_EQ(WEXITSTATUS(removal.status), 0) << removal.output;
  CommandResult gone = RunCommand(std::string(ROUTEDB_BIN) + " get " +
                                  image.string() + " leafa");
  EXPECT_NE(WEXITSTATUS(gone.status), 0);

  // Without an initialized state dir the update refuses with guidance.
  CommandResult uninitialized = RunCommand(std::string(ROUTEDB_BIN) + " update " +
                                           (dir_ / "other.pari").string());
  EXPECT_NE(WEXITSTATUS(uninitialized.status), 0);
  EXPECT_NE(uninitialized.output.find("--init"), std::string::npos);
}

TEST_F(CliTest, RoutedbUpdateWithNothingToDoLeavesImageUntouched) {
  fs::path image = dir_ / "routes.pari";
  CommandResult init = RunCommand(std::string(ROUTEDB_BIN) + " update --init --local unc " +
                                  image.string() + " " + map_path_);
  ASSERT_EQ(WEXITSTATUS(init.status), 0) << init.output;
  fs::path manifest = dir_ / "routes.pari.state" / "manifest";
  ASSERT_TRUE(fs::exists(manifest));

  auto read_bytes = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::string image_before = read_bytes(image);
  auto image_mtime = fs::last_write_time(image);
  auto manifest_mtime = fs::last_write_time(manifest);

  CommandResult noop = RunCommand(std::string(ROUTEDB_BIN) + " update " + image.string());
  EXPECT_EQ(WEXITSTATUS(noop.status), 0) << noop.output;
  EXPECT_NE(noop.output.find("nothing to do"), std::string::npos) << noop.output;
  // --stats keeps its contract on the fast path: the breakdown line still appears
  // (all zeros), so scripted parsers keyed on it never stall.
  CommandResult noop_stats =
      RunCommand(std::string(ROUTEDB_BIN) + " update --stats " + image.string());
  EXPECT_EQ(WEXITSTATUS(noop_stats.status), 0) << noop_stats.output;
  EXPECT_NE(noop_stats.output.find("update stats: patched=1"), std::string::npos)
      << noop_stats.output;
  // Neither refrozen nor re-saved: bytes AND mtimes are exactly as the init left
  // them (a rewrite-with-identical-bytes would still bump the timestamps).
  EXPECT_EQ(read_bytes(image), image_before);
  EXPECT_EQ(fs::last_write_time(image), image_mtime);
  EXPECT_EQ(fs::last_write_time(manifest), manifest_mtime);

  // The fast path must not swallow flag validation: a conflicting --local still
  // errors even with no changed files.
  CommandResult conflict = RunCommand(std::string(ROUTEDB_BIN) + " update --local elsewhere " +
                                      image.string());
  EXPECT_NE(WEXITSTATUS(conflict.status), 0);
  EXPECT_NE(conflict.output.find("re-run --init"), std::string::npos) << conflict.output;

  // --stats has no meaning on the init path; a silent no-op would mislead scripts.
  CommandResult init_stats = RunCommand(std::string(ROUTEDB_BIN) + " update --init --stats " +
                                        image.string() + " " + map_path_);
  EXPECT_EQ(WEXITSTATUS(init_stats.status), 2);
  EXPECT_NE(init_stats.output.find("--stats"), std::string::npos) << init_stats.output;
}

TEST_F(CliTest, RoutedbUpdateStatsReportsPatchBreakdown) {
  fs::path core = dir_ / "core.map";
  fs::path nick = dir_ / "nick.map";
  {
    std::ofstream out(core);
    out << "hub\tmid(100)\nmid\thub(100), leafa(50)\n";
  }
  {
    std::ofstream out(nick);
    out << "leafa\tmid(50)\n";
  }
  fs::path image = dir_ / "routes.pari";
  ASSERT_EQ(WEXITSTATUS(RunCommand(std::string(ROUTEDB_BIN) + " update --init --local hub " +
                                   image.string() + " " + core.string() + " " +
                                   nick.string())
                            .status),
            0);
  {
    std::ofstream out(nick, std::ios::trunc);
    out << "leafa\tmid(50)\nleafa = nicka\ndead {leafa!mid}\n";
  }
  CommandResult update = RunCommand(std::string(ROUTEDB_BIN) + " update --stats " +
                                    image.string() + " " + nick.string());
  EXPECT_EQ(WEXITSTATUS(update.status), 0) << update.output;
  EXPECT_NE(update.output.find("patched"), std::string::npos) << update.output;
  EXPECT_NE(update.output.find("alias_edits=1"), std::string::npos) << update.output;
  EXPECT_NE(update.output.find("link_flag_edits=1"), std::string::npos) << update.output;
  EXPECT_NE(update.output.find("region_has_aliases=1"), std::string::npos) << update.output;
  // The nickname's route serves from the refrozen image.
  CommandResult get = RunCommand(std::string(ROUTEDB_BIN) + " get " + image.string() +
                                 " nicka");
  EXPECT_EQ(WEXITSTATUS(get.status), 0) << get.output;
}

// Numeric-flag parsing parity: junk, negative, overflow, and out-of-bounds operands
// must produce a named-flag diagnostic and exit 2 — never an uncaught exception
// (mapgen --seed used to die on std::stoull) and never silent truncation.
TEST_F(CliTest, NumericFlagOperandsAreValidatedEverywhere) {
  struct Case {
    std::string label;
    std::string command;
    std::string flag;  // must appear in the diagnostic
  };
  const Case cases[] = {
      {"mapgen seed junk", std::string(MAPGEN_BIN) + " --small --seed junk", "--seed"},
      {"mapgen seed trailing", std::string(MAPGEN_BIN) + " --small --seed 12abc", "--seed"},
      {"mapgen seed negative", std::string(MAPGEN_BIN) + " --small --seed -3", "--seed"},
      {"mapgen seed overflow",
       std::string(MAPGEN_BIN) + " --small --seed 99999999999999999999999", "--seed"},
      {"batch threads junk",
       std::string(ROUTEDB_BIN) + " batch --threads abc db < /dev/null", "--threads"},
      {"batch threads negative",
       std::string(ROUTEDB_BIN) + " batch --threads -2 db < /dev/null", "--threads"},
      {"batch threads overflow",
       std::string(ROUTEDB_BIN) + " batch --threads 99999999999999999999999 db < /dev/null",
       "--threads"},
      {"batch threads out of bounds",
       std::string(ROUTEDB_BIN) + " batch --threads 1000000 db < /dev/null", "--threads"},
      {"batch cache junk",
       std::string(ROUTEDB_BIN) + " batch --cache-entries 1x db < /dev/null",
       "--cache-entries"},
      {"batch cache negative",
       std::string(ROUTEDB_BIN) + " batch --cache-entries -1 db < /dev/null",
       "--cache-entries"},
      // The daemon always serves through a cache: 0 is refused while parsing, so
      // the missing image is never opened and no daemon starts.
      {"routedbd cache zero",
       std::string(ROUTEDBD_BIN) + " --image " + (dir_ / "missing.pari").string() +
           " --unix " + (dir_ / "routedbd.sock").string() + " --cache-entries 0",
       "--cache-entries"},
  };
  for (const Case& test_case : cases) {
    CommandResult result = RunCommand(test_case.command);
    EXPECT_EQ(WEXITSTATUS(result.status), 2) << test_case.label << ": " << result.output;
    EXPECT_NE(result.output.find(test_case.flag), std::string::npos)
        << test_case.label << " should name the flag: " << result.output;
  }
}

TEST_F(CliTest, RoutedbBatchStreamsStdinInChunksWithIdenticalOutput) {
  // The bounded-memory contract: batch reads its input in fixed-size chunks (one
  // resolve per chunk, malformed lines interleaved back in position), and the
  // emitted bytes are identical at ANY chunk size — including a stdin stream far
  // larger than a single chunk, and a pathological chunk of 1 line.
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari).status,
            0);

  std::string hosts = (dir_ / "hosts.txt").string();
  {
    const char* names[] = {"phs", "duke", "research", "mit-ai", "ucbvax", "stanford"};
    std::ofstream out(hosts);
    for (int i = 0; i < 5000; ++i) {
      if (i % 37 == 5) {
        out << "torn line " << i << "\n";  // malformed, interleaved mid-stream
      } else if (i % 11 == 3) {
        out << "stranger" << i << ".nowhere.example\n";
      } else {
        out << names[i % 6] << "\n";
      }
    }
  }

  CommandResult baseline =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  ASSERT_EQ(baseline.status, 0);
  EXPECT_NE(baseline.output.find("phs\tphs"), std::string::npos) << baseline.output;
  EXPECT_NE(baseline.output.find("torn line 5\t*malformed*"), std::string::npos)
      << baseline.output;

  for (const char* flags : {"--chunk-lines 1", "--chunk-lines 7", "--chunk-lines 512"}) {
    // 5000 lines through small chunks, streamed on stdin: the stderr line names
    // <stdin>, so compare stdout only against a stdout-only baseline (subshell:
    // RunCommand appends its own 2>&1, which must not resurrect stderr).
    CommandResult stream = RunCommand("( " + std::string(ROUTEDB_BIN) + " batch " + flags +
                                      " " + pari + " < " + hosts + " 2>/dev/null )");
    CommandResult file_baseline =
        RunCommand("( " + std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts +
                   " 2>/dev/null )");
    EXPECT_EQ(stream.status, 0) << flags;
    EXPECT_EQ(stream.output, file_baseline.output) << flags;
  }

  CommandResult bad =
      RunCommand(std::string(ROUTEDB_BIN) + " batch --chunk-lines junk " + pari +
                 " < /dev/null");
  EXPECT_EQ(WEXITSTATUS(bad.status), 2);
  EXPECT_NE(bad.output.find("--chunk-lines"), std::string::npos) << bad.output;
}

}  // namespace
}  // namespace pathalias
