#include "perfbench/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/loadgen.h"
#include "src/core/mapper.h"
#include "src/core/route_printer.h"
#include "src/exec/batch_engine.h"
#include "src/graph/graph.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/net/daemon.h"
#include "src/net/wire.h"
#include "src/parser/lexer.h"
#include "src/parser/parser.h"
#include "src/support/diag.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Nearest-rank percentile; run.py refuses a p99 with fewer than 10 samples beyond it.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// A flat JSON object of named numbers.
class Figures {
 public:
  void Set(const std::string& name, double value) { values_.emplace_back(name, value); }
  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{";
    for (size_t i = 0; i < values_.size(); ++i) {
      out << (i ? ", " : "") << '"' << values_[i].first << "\": " << values_[i].second;
    }
    out << "}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// The same read pathalias's main and RolloverController do.
std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void PrintDiagnostics(pathalias::Diagnostics* diag) {
  diag->set_sink([](const pathalias::Diagnostic& diagnostic) {
    if (diagnostic.severity != pathalias::Severity::kNote) {
      std::cerr << pathalias::ToString(diagnostic) << "\n";
    }
  });
}

std::unique_ptr<pathalias::FrozenImage> OpenImage(const std::string& path) {
  std::string error;
  auto image = pathalias::FrozenImage::Open(path, pathalias::image::ImageView::Verify::kStructure,
                                            &error, /*readahead=*/true);
  if (!image.has_value()) {
    throw std::runtime_error("cannot open image " + path + ": " + error);
  }
  return std::make_unique<pathalias::FrozenImage>(std::move(*image));
}

// routedbd's serving-engine settings: one shard, its 4096-entry default cache.
pathalias::exec::BatchEngineOptions DaemonEngineOptions() {
  pathalias::exec::BatchEngineOptions options;
  options.cache_entries = 4096;
  return options;
}

// Calls `body` over and over for at least 50 ms and returns ns per call of
// `per_round` items.
template <typename Body>
double NsPerItem(size_t per_round, Body body) {
  size_t rounds = 0;
  auto start = Clock::now();
  do {
    body();
    ++rounds;
  } while (MsSince(start) < 50);
  return MsSince(start) * 1e6 / static_cast<double>(rounds * per_round);
}

}  // namespace

int TraceMap(const Args& args) {
  const std::string local = args.Get("local");
  Figures figures;
  auto start = Clock::now();
  auto span = Clock::now();
  std::vector<pathalias::InputFile> files;
  for (const std::string& name : args.positional()) {
    files.push_back({name, ReadFile(name)});
  }
  const double read_ms = MsSince(span);

  // Lexer-only pass over the same bytes; not part of the pipeline's spans.
  span = Clock::now();
  double tokens = 0;
  for (const pathalias::InputFile& file : files) {
    pathalias::Lexer lexer(file.content);
    for (;;) {
      pathalias::Token token = lexer.Next();
      ++tokens;
      if (token.kind == pathalias::TokenKind::kEnd) {
        break;
      }
      if (token.kind == pathalias::TokenKind::kLParen) {
        lexer.CaptureParenBody();
      }
    }
  }
  const double lex_ms = MsSince(span);

  span = Clock::now();
  pathalias::Diagnostics diag;
  PrintDiagnostics(&diag);
  auto graph = std::make_unique<pathalias::Graph>(&diag, pathalias::Graph::Options{});
  pathalias::Parser parser(graph.get());
  // Parser::ParseFiles's own loop.  Its return value adds up ParseFile's running
  // totals, so the count is taken from the last ParseFile instead.
  double declarations = 0;
  for (const pathalias::InputFile& file : files) {
    declarations = parser.ParseFile(file);
  }
  const double parse_ms = MsSince(span);
  const double nodes = static_cast<double>(graph->node_count());
  const double links = static_cast<double>(graph->link_count());

  span = Clock::now();
  graph->SetLocal(local);
  pathalias::Mapper mapper(graph.get(), pathalias::MapOptions{});
  pathalias::Mapper::Result map = mapper.Run();
  for (const pathalias::Node* unreachable : map.unreachable) {
    diag.Warn(pathalias::SourcePos{}, std::string(graph->NameOf(unreachable)) + " is unreachable");
  }
  const double map_ms = MsSince(span);

  span = Clock::now();
  pathalias::PrintOptions print;
  pathalias::RoutePrinter printer(map, print);
  std::vector<pathalias::RouteEntry> routes = printer.Build();
  const double build_ms = MsSince(span);
  span = Clock::now();
  std::string output = pathalias::RoutePrinter::Render(routes, print);
  const double render_ms = MsSince(span);

  span = Clock::now();
  {
    std::ofstream out(args.Get("routes"), std::ios::trunc);
    out << output;
    if (!out) {
      throw std::runtime_error("cannot write " + args.Get("routes"));
    }
  }
  const double write_ms = MsSince(span);
  figures.Set("io.read_ms", read_ms);
  figures.Set("parser.lex_ms", lex_ms);
  figures.Set("parser.tokens", tokens);
  figures.Set("parser.lex_mtokens_per_s", tokens / lex_ms / 1e3);
  figures.Set("parser.parse_ms", parse_ms);
  figures.Set("parser.declarations", declarations);
  figures.Set("graph.nodes", nodes);
  figures.Set("graph.links", links);
  figures.Set("core.mapper.run_ms", map_ms);
  figures.Set("core.mapper.heap_pops", static_cast<double>(map.heap_pops));
  figures.Set("core.mapper.relaxations", static_cast<double>(map.relaxations));
  figures.Set("core.mapper.back_link_passes", static_cast<double>(map.back_link_passes));
  figures.Set("core.mapper.invented_links", static_cast<double>(map.invented_links));
  figures.Set("core.route_printer.build_ms", build_ms);
  figures.Set("core.route_printer.render_ms", render_ms);
  figures.Set("core.route_printer.routes", static_cast<double>(routes.size()));
  figures.Set("core.route_printer.bytes", static_cast<double>(output.size()));
  figures.Set("io.write_ms", write_ms);

  // What pathalias's exit pays: releasing the routes, the mapping and the graph.
  span = Clock::now();
  routes = {};
  output = {};
  map = {};
  graph.reset();
  files = {};
  const double teardown_ms = MsSince(span);
  // The whole traced pipeline, less the Lexer-only pass pathalias never makes.
  const double traced_ms = MsSince(start) - lex_ms;
  figures.Set("graph.teardown_ms", teardown_ms);
  figures.Set("traced_ms", traced_ms);
  return figures.Write(args.Get("json")) ? 0 : 1;
}

int TraceServe(const Args& args) {
  namespace net = pathalias::net;
  const std::string image_path = args.Get("image");
  Figures figures;

  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    auto span = Clock::now();
    auto image = OpenImage(image_path);
    open_ms.push_back(MsSince(span));
  }

  net::DaemonOptions options;
  options.rollover.image_path = image_path;
  options.rollover.engine = DaemonEngineOptions();
  options.udp_port = 0;
  net::Daemon daemon(options);
  std::string error;
  if (!daemon.Start(&error)) {
    throw std::runtime_error("daemon start: " + error);
  }
  const std::vector<Request> pool = ReadRequests(args.Get("requests"));
  LoadOptions load;
  load.port = daemon.udp_port();
  load.rate = std::stod(args.Get("rate"));
  load.seconds = std::stod(args.Get("seconds"));
  load.sender_cpu = std::stoi(args.Get("sender-cpu", "-1"));
  load.receiver_cpu = std::stoi(args.Get("receiver-cpu", "-1"));
  PinThread(std::stoi(args.Get("daemon-cpu", "-1")));

  std::atomic<bool> done{false};
  LoadResult result;
  std::exception_ptr client_error;
  std::thread client([&] {
    try {
      result = RunLoad(load, pool);
    } catch (...) {
      client_error = std::current_exception();
    }
    done.store(true);
  });
  const net::DaemonStats before = daemon.stats();
  std::vector<double> turn_us;
  while (!done.load()) {
    const uint64_t seen = daemon.stats().datagrams_in;
    auto span = Clock::now();
    daemon.PollOnce(0);
    const double us = MsSince(span) * 1e3;
    if (daemon.stats().datagrams_in != seen) {
      turn_us.push_back(us);
    }
  }
  client.join();
  if (client_error) {
    std::rethrow_exception(client_error);
  }
  const net::DaemonStats after = daemon.stats();
  if (!WriteLoadResult(result, args.Get("out"))) {
    throw std::runtime_error("cannot write load result");
  }
  const double batches = static_cast<double>(after.batches - before.batches);
  const double queries_per_batch =
      batches == 0 ? 0 : static_cast<double>(after.queries - before.queries) / batches;

  // The wire codec on the workload's own requests and the replies they get.
  auto image = OpenImage(image_path);
  const pathalias::FrozenRouteSet& routes = image->routes();
  pathalias::exec::FrozenBatchEngine reply_engine(&routes, DaemonEngineOptions());
  const size_t sample = std::min<size_t>(pool.size(), 20000);
  std::vector<std::vector<std::string_view>> names(sample);
  std::vector<std::string> requests(sample);
  std::vector<std::string> replies(sample);
  std::vector<std::vector<net::ReplyResult>> results(sample);
  for (size_t i = 0; i < sample; ++i) {
    names[i].assign(pool[i].begin(), pool[i].end());
    std::vector<pathalias::BatchLookup> lookups(names[i].size());
    reply_engine.ResolveBatch(names[i], lookups);
    for (const pathalias::BatchLookup& lookup : lookups) {
      net::ReplyResult reply;
      if (lookup.route.ok()) {
        reply.status = lookup.suffix_match ? net::kResultSuffix : net::kResultExact;
        reply.via = routes.names().View(lookup.via);
        reply.route = lookup.route.route;
      }
      results[i].push_back(reply);
    }
  }
  figures.Set("net.wire.encode_request_ns", NsPerItem(sample, [&] {
    for (size_t i = 0; i < sample; ++i) {
      net::EncodeRequest(i + 1, names[i], &requests[i]);
    }
  }));
  figures.Set("net.wire.decode_request_ns", NsPerItem(sample, [&] {
    net::DecodedRequest decoded;
    uint64_t id = 0;
    for (size_t i = 0; i < sample; ++i) {
      net::DecodeRequest(requests[i], &decoded, &error, &id);
    }
  }));
  figures.Set("net.wire.encode_reply_ns", NsPerItem(sample, [&] {
    for (size_t i = 0; i < sample; ++i) {
      net::EncodeReply(i + 1, 0, results[i].size(), results[i], net::kMaxDatagramBytes,
                       &replies[i]);
    }
  }));
  figures.Set("net.wire.decode_reply_ns", NsPerItem(sample, [&] {
    net::DecodedReply decoded;
    for (size_t i = 0; i < sample; ++i) {
      net::DecodeReply(replies[i], &decoded, &error);
    }
  }));

  // The engine alone on the stream the daemon saw, in batches of the size it saw.
  std::vector<std::string_view> stream;
  for (uint64_t i = 0; i < result.attempted; ++i) {
    for (const std::string& name : pool[i % pool.size()]) {
      stream.push_back(name);
    }
  }
  pathalias::exec::FrozenBatchEngine engine(&routes, DaemonEngineOptions());
  std::vector<pathalias::BatchLookup> lookups(stream.size());
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(queries_per_batch)));
  auto span = Clock::now();
  for (size_t at = 0; at < stream.size(); at += batch) {
    size_t n = std::min(batch, stream.size() - at);
    engine.ResolveBatch(std::span(stream).subspan(at, n), std::span(lookups).subspan(at, n));
  }
  const double resolve_ms = MsSince(span);
  double resolved = 0;
  double suffix = 0;
  for (const pathalias::BatchLookup& lookup : lookups) {
    resolved += lookup.route.ok();
    suffix += lookup.route.ok() && lookup.suffix_match;
  }
  const double queries = static_cast<double>(std::max<size_t>(1, stream.size()));

  figures.Set("net.daemon.turn_us.p50", Percentile(turn_us, 50));
  figures.Set("net.daemon.turn_us.p99", Percentile(turn_us, 99));
  figures.Set("net.daemon.turns", static_cast<double>(turn_us.size()));
  figures.Set("net.daemon.datagrams_per_turn",
              turn_us.empty() ? 0
                              : static_cast<double>(after.datagrams_in - before.datagrams_in) /
                                    static_cast<double>(turn_us.size()));
  figures.Set("net.daemon.queries_per_batch", queries_per_batch);
  figures.Set("net.daemon.send_drops", static_cast<double>(after.send_drops - before.send_drops));
  figures.Set("net.daemon.overload_replies",
              static_cast<double>(after.overload_replies - before.overload_replies));
  figures.Set("net.daemon.duplicate_requests",
              static_cast<double>(after.duplicate_requests - before.duplicate_requests));
  figures.Set("exec.resolve_ns_per_query", resolve_ms * 1e6 / queries);
  figures.Set("exec.cache_hit_rate", engine.stats().hit_rate());
  figures.Set("route_db.resolved_ratio", resolved / queries);
  figures.Set("route_db.suffix_ratio", suffix / queries);
  figures.Set("image.open_ms", Median(open_ms));
  return figures.Write(args.Get("json")) ? 0 : 1;
}

int TraceChurn(const Args& args) {
  const std::string image_path = args.Get("image");
  const std::string state_path = image_path + ".state";
  std::vector<std::string> map_files;
  {
    std::istringstream list(ReadFile(args.Get("maps")));
    for (std::string line; std::getline(list, line);) {
      if (!line.empty()) map_files.push_back(line);
    }
  }
  const std::vector<Edit> plan = ReadPlan(args.Get("plan"));
  const std::vector<Request> pool = ReadRequests(args.Get("requests"));

  // The builder's lazy load, as the first HUP after a daemon start pays it.
  std::string error;
  auto state = pathalias::incr::LoadStateDir(state_path, &error);
  if (!state.has_value()) {
    throw std::runtime_error("cannot load " + state_path + ": " + error);
  }
  pathalias::incr::MapBuilderOptions builder_options;
  builder_options.local = state->local;
  builder_options.ignore_case = state->ignore_case;
  pathalias::incr::MapBuilder builder(builder_options);
  PrintDiagnostics(&builder.diag());
  if (!builder.BuildFromArtifacts(std::move(state->artifacts))) {
    throw std::runtime_error("retained state no longer builds");
  }
  std::unique_ptr<pathalias::FrozenImage> current = OpenImage(image_path);
  uint64_t generation = current->view().header().generation;
  pathalias::exec::FrozenBatchEngine engine(&current->routes(), DaemonEngineOptions());

  std::vector<double> read_ms, update_ms, refreeze_ms, save_ms, open_ms, adopt_ms, step_ms;
  std::vector<double> dirty_nodes, routes_changed;
  double patched = 0;
  size_t next_request = 0;
  std::vector<pathalias::BatchLookup> lookups;
  auto serve_between_edits = [&] {
    // The uniform stream keeps flowing between reloads: 5000 requests a gap.
    for (int i = 0; i < 5000; ++i, ++next_request) {
      const Request& request = pool[next_request % pool.size()];
      std::vector<std::string_view> names(request.begin(), request.end());
      lookups.resize(names.size());
      engine.ResolveBatch(names, lookups);
    }
  };
  for (const Edit& edit : plan) {
    serve_between_edits();
    std::filesystem::rename(edit.source, edit.target);
    auto step = Clock::now();

    auto span = Clock::now();
    std::vector<pathalias::InputFile> files;
    for (const std::string& path : map_files) {
      files.push_back({path, ReadFile(path)});
    }
    read_ms.push_back(MsSince(span));

    span = Clock::now();
    pathalias::incr::UpdateStats stats = builder.Update(files);
    update_ms.push_back(MsSince(span));
    if (!builder.valid()) {
      throw std::runtime_error("update left no buildable map");
    }
    patched += stats.patched;
    dirty_nodes.push_back(static_cast<double>(stats.dirty_nodes));
    routes_changed.push_back(static_cast<double>(stats.routes_changed));

    span = Clock::now();
    ++generation;
    if (!pathalias::image::ImageWriter::Refreeze(builder.routes(), image_path, generation,
                                                 &error)) {
      throw std::runtime_error("refreeze: " + error);
    }
    refreeze_ms.push_back(MsSince(span));

    span = Clock::now();
    pathalias::incr::StateDirContents contents;
    contents.local = builder.options().local;
    contents.ignore_case = builder.options().ignore_case;
    contents.image_generation = generation;
    contents.artifacts = builder.artifacts();
    if (!pathalias::incr::SaveStateDir(state_path, contents)) {
      throw std::runtime_error("cannot save " + state_path);
    }
    save_ms.push_back(MsSince(span));

    span = Clock::now();
    std::unique_ptr<pathalias::FrozenImage> fresh = OpenImage(image_path);
    open_ms.push_back(MsSince(span));

    span = Clock::now();
    engine.AdoptRoutes(&fresh->routes(), builder.dirty_route_ids());
    adopt_ms.push_back(MsSince(span));
    current = std::move(fresh);
    step_ms.push_back(MsSince(step));

    std::vector<std::string_view> sentinel{edit.sentinel};
    std::vector<pathalias::BatchLookup> found(1);
    engine.ResolveBatch(sentinel, found);
    if (!found[0].route.ok() || found[0].suffix_match) {
      throw std::runtime_error("sentinel " + edit.sentinel + " does not resolve after its edit");
    }
  }
  serve_between_edits();

  Figures figures;
  figures.Set("io.read_maps_ms", Median(read_ms));
  figures.Set("incr.update_ms", Median(update_ms));
  figures.Set("incr.patched_ratio", plan.empty() ? 0 : patched / static_cast<double>(plan.size()));
  figures.Set("incr.dirty_nodes", Median(dirty_nodes));
  figures.Set("incr.routes_changed", Median(routes_changed));
  figures.Set("image.refreeze_ms", Median(refreeze_ms));
  figures.Set("incr.state_save_ms", Median(save_ms));
  figures.Set("image.open_ms", Median(open_ms));
  figures.Set("exec.adopt_ms", Median(adopt_ms));
  figures.Set("exec.cache_hit_rate", engine.stats().hit_rate());
  figures.Set("step_ms", Median(step_ms));
  return figures.Write(args.Get("json")) ? 0 : 1;
}

}  // namespace perfbench
