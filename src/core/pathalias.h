// Public facade: parse → map → print in one call.
//
// This is the library equivalent of running the pathalias program: feed it map files,
// get back the route list plus everything the phases learned (graph, mapping stats,
// structured routes).  Each phase remains individually usable — see Parser, Mapper and
// RoutePrinter — this header just wires the common pipeline.

#ifndef SRC_CORE_PATHALIAS_H_
#define SRC_CORE_PATHALIAS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/mapper.h"
#include "src/core/route_printer.h"
#include "src/graph/graph.h"
#include "src/parser/parser.h"
#include "src/support/diag.h"

namespace pathalias {

struct RunOptions {
  Graph::Options graph;
  MapOptions map;
  PrintOptions print;
  // The local host (Dijkstra source).  Empty [R]: the first host declared in the input,
  // with a note (the original defaulted to the machine's own UUCP name, which would
  // make output depend on where the tool runs).
  // pathalint: allow(R1): CLI option boundary — set before any input is parsed,
  // so no interner exists yet to key it.
  std::string local;
};

struct RunResult {
  std::unique_ptr<Graph> graph;  // keeps every Node/Link/PathLabel alive
  Mapper::Result map;
  std::vector<RouteEntry> routes;
  std::string output;  // rendered route list
};

// Runs the full pipeline.  Diagnostics accumulate in *diag; parse errors do not abort
// (bad lines are skipped), but a missing local host yields an empty route list.
RunResult Run(const std::vector<InputFile>& files, const RunOptions& options,
              Diagnostics* diag);

// Convenience for tests and examples: a single anonymous input.
RunResult RunString(std::string_view map_text, const RunOptions& options, Diagnostics* diag);

}  // namespace pathalias

#endif  // SRC_CORE_PATHALIAS_H_
