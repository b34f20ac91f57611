// The pathalias command-line tool.
//
// Usage mirrors the original:
//   pathalias [-c] [-f] [-i] [-v] [-l localname] [-d deadarg]... [-t tracearg]...
//             [-o outfile] [--two-label] [--strict-syntax] [--no-back-links] [files...]
//
//   -c            print costs (leading column, as in the paper's example output)
//   -f            report first-hop cost instead of total cost
//   -i            ignore case in host names
//   -l name       the local host (default: first host declared, with a note)
//   -d arg        declare a host ("foo") or link ("foo!bar") dead from the command line
//   -t arg        trace mapping decisions involving a host or link
//   -o file       write routes to file instead of stdout
//   -v            verbose: print phase statistics to stderr
//   --two-label   enable the second-best-path extension (paper §Problems)
//   --strict-syntax  also penalize LEFT-then-RIGHT syntax mixing
//   --no-back-links  do not invent reverse links for unreachable hosts
//   --incremental DIR  keep per-file parse artifacts in DIR between runs: files
//                 whose bytes are unchanged since the last run skip the lexer and
//                 parser entirely (digest match); output is identical to a plain
//                 run over the same files.  Incompatible with -d/-t/--two-label/
//                 --strict-syntax/--no-back-links (those alter mapping semantics
//                 the retained state does not parameterize).
//   files         map files; "-" or none reads standard input

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/core/pathalias.h"
#include "src/core/route_printer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/support/failpoint.h"
#include "src/support/read_file.h"

namespace {

void Usage() {
  std::cerr << "usage: pathalias [-c] [-f] [-i] [-v] [-l localname] [-d deadarg] [-t tracearg]\n"
               "                 [-o outfile] [--two-label] [--strict-syntax] [--no-back-links]\n"
               "                 [--incremental statedir] [files...]\n";
}

}  // namespace

int main(int argc, char** argv) {
  pathalias::support::failpoint::ArmFromEnv();
  pathalias::RunOptions options;
  std::vector<std::string> dead_args;
  std::vector<std::string> file_names;
  std::string out_file;
  std::string incremental_dir;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto needs_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "pathalias: " << flag << " requires an argument\n";
        Usage();
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "-c") {
      options.print.include_costs = true;
    } else if (arg == "-f") {
      options.print.first_hop_cost = true;
    } else if (arg == "-i") {
      options.graph.ignore_case = true;
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg == "-l") {
      options.local = needs_value("-l");
    } else if (arg == "-d") {
      dead_args.emplace_back(needs_value("-d"));
    } else if (arg == "-t") {
      options.map.trace.emplace_back(needs_value("-t"));
    } else if (arg == "-o") {
      out_file = needs_value("-o");
    } else if (arg == "--two-label") {
      options.map.two_label = true;
    } else if (arg == "--strict-syntax") {
      options.map.penalize_left_then_right = true;
    } else if (arg == "--no-back-links") {
      options.map.back_links = false;
    } else if (arg == "--incremental") {
      incremental_dir = needs_value("--incremental");
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "pathalias: unknown option " << arg << "\n";
      Usage();
      return 2;
    } else {
      file_names.push_back(arg);
    }
  }

  std::vector<pathalias::InputFile> files;
  if (file_names.empty()) {
    file_names.push_back("-");
  }
  for (const std::string& name : file_names) {
    bool is_stdin = name == "-";
    std::optional<std::string> content =
        is_stdin ? pathalias::support::ReadWholeFd(STDIN_FILENO)
                 : pathalias::support::ReadWholeFile(name);
    if (!content.has_value()) {
      std::cerr << "pathalias: cannot open " << name << "\n";
      return 1;
    }
    files.push_back({is_stdin ? "<stdin>" : name, std::move(*content)});
  }

  if (!incremental_dir.empty()) {
    if (!dead_args.empty() || !options.map.trace.empty() || options.map.two_label ||
        options.map.penalize_left_then_right || !options.map.back_links) {
      std::cerr << "pathalias: --incremental does not combine with -d, -t, --two-label, "
                   "--strict-syntax, or --no-back-links\n";
      return 2;
    }
    pathalias::incr::MapBuilderOptions builder_options;
    builder_options.local = options.local;
    builder_options.ignore_case = options.graph.ignore_case;
    pathalias::incr::MapBuilder builder(builder_options);
    builder.diag().set_sink([](const pathalias::Diagnostic& diagnostic) {
      if (diagnostic.severity != pathalias::Severity::kNote) {
        std::cerr << pathalias::ToString(diagnostic) << "\n";
      }
    });
    // Reuse retained artifacts when they exist AND were built under the same
    // options; a mismatch (or missing/corrupt state) silently falls back to a full
    // parse and re-seeds the directory.
    std::vector<pathalias::incr::FileArtifact> prior;
    std::string state_error;
    if (auto state = pathalias::incr::LoadStateDir(incremental_dir, &state_error)) {
      if (state->local == builder_options.local &&
          state->ignore_case == builder_options.ignore_case) {
        prior = std::move(state->artifacts);
      }
    }
    size_t reparsed = 0;
    size_t reused = 0;
    bool built = builder.BuildReusing(files, std::move(prior), &reparsed, &reused);
    if (!builder.SaveState(incremental_dir, /*image_generation=*/0)) {
      std::cerr << "pathalias: cannot save state to " << incremental_dir << "\n";
      return 1;
    }
    if (!built) {
      return 1;
    }
    // Render from the builder's tree with the user's print options: byte-identical
    // to a plain (non-incremental) run over the same inputs.  This is a second
    // traversal (the builder emitted once into routes() already) — deliberate:
    // -f/-c change what Build/Render produce, so the internal emission cannot be
    // reused, and a traversal is milliseconds even at full 1986 scale.
    pathalias::RoutePrinter printer(builder.map(), options.print);
    std::string output = printer.BuildAndRender();
    if (out_file.empty()) {
      std::cout << output;
    } else {
      std::ofstream out(out_file, std::ios::trunc);
      if (!out) {
        std::cerr << "pathalias: cannot write " << out_file << "\n";
        return 1;
      }
      out << output;
    }
    if (verbose) {
      std::cerr << "pathalias: incremental: " << reused << " file(s) reused, " << reparsed
                << " reparsed; " << builder.routes().size() << " routes (local "
                << builder.local_name() << ")\n";
    }
    return builder.diag().error_count() == 0 ? 0 : 1;
  }

  // Command-line dead declarations become a synthetic trailing input file, which is
  // how the original's -d behaved (it post-processes the parsed map).
  if (!dead_args.empty()) {
    std::string body;
    for (const std::string& arg : dead_args) {
      body += "dead {" + arg + "}\n";
    }
    files.push_back({"<command line>", body});
  }

  pathalias::Diagnostics diag;
  diag.set_sink([](const pathalias::Diagnostic& diagnostic) {
    if (diagnostic.severity != pathalias::Severity::kNote) {
      std::cerr << pathalias::ToString(diagnostic) << "\n";
    }
  });

  pathalias::RunResult result = pathalias::Run(files, options, &diag);

  if (out_file.empty()) {
    std::cout << result.output;
  } else {
    std::ofstream out(out_file, std::ios::trunc);
    if (!out) {
      std::cerr << "pathalias: cannot write " << out_file << "\n";
      return 1;
    }
    out << result.output;
  }

  if (verbose) {
    const auto& stats = result.map;
    std::cerr << "pathalias: " << result.graph->node_count() << " nodes, "
              << result.graph->link_count() << " links\n"
              << "pathalias: mapped " << stats.mapped_hosts << " hosts ("
              << stats.mapped_labels << " labels), " << stats.unreachable_hosts
              << " unreachable, " << stats.invented_links << " links invented in "
              << stats.back_link_passes << " back-link passes\n"
              << "pathalias: " << stats.heap_pushes << " heap pushes, " << stats.heap_pops
              << " pops, " << stats.relaxations << " relaxations"
              << (stats.heap_storage_reused ? " (heap built in retired hash table)" : "")
              << "\n"
              << "pathalias: " << stats.mixed_syntax_routes << " mixed-syntax routes ("
              << stats.syntax_penalized_routes << " penalized for ambiguity), "
              << stats.penalized_routes << " routes carrying some penalty\n";
  }
  return diag.error_count() == 0 ? 0 : 1;
}
