// perfbench_tool: the benchmark's harness binary.  perfbench/run.py calls it;
// every subcommand writes its measurements to files run.py reads.
//
//   loadgen --port P --requests FILE --rate R --seconds S --out PREFIX
//           [--id-base N] [--epoch-base G] [--sender-cpu C --receiver-cpu C]
//           [--pid PID --plan FILE]
//       open-loop UDP client (see loadgen.h); with --pid, also applies the
//       edits in --plan to that daemon while the load runs
//   edit --port P --pid PID --plan FILE --out FILE
//       applies every edit in --plan in turn, each once the previous one is
//       visible; writes one visible_ms a line
//   trace-map / trace-serve / trace-churn ...
//       the traced replays in trace.cc

#include <atomic>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench/loadgen.h"
#include "perfbench/trace.h"

namespace perfbench {

namespace {

int Loadgen(const Args& args) {
  LoadOptions options;
  options.port = static_cast<uint16_t>(std::stoi(args.Get("port")));
  options.rate = std::stod(args.Get("rate"));
  options.seconds = std::stod(args.Get("seconds"));
  options.id_base = std::stoull(args.Get("id-base", "1"));
  options.epoch_base = static_cast<uint32_t>(std::stoul(args.Get("epoch-base", "0")));
  options.sender_cpu = std::stoi(args.Get("sender-cpu", "-1"));
  options.receiver_cpu = std::stoi(args.Get("receiver-cpu", "-1"));
  if (args.Has("pid")) {
    options.pid = static_cast<pid_t>(std::stol(args.Get("pid")));
    options.edits = ReadPlan(args.Get("plan"));
  }
  LoadResult result = RunLoad(options, ReadRequests(args.Get("requests")));
  return WriteLoadResult(result, args.Get("out")) ? 0 : 1;
}

int EditCommand(const Args& args) {
  const uint16_t port = static_cast<uint16_t>(std::stoi(args.Get("port")));
  const pid_t pid = static_cast<pid_t>(std::stol(args.Get("pid")));
  std::ofstream out(args.Get("out"), std::ios::trunc);
  std::atomic<uint32_t> signalled{0};
  for (const Edit& edit : ReadPlan(args.Get("plan"))) {
    EditOutcome outcome = ApplyEdit(port, pid, edit, &signalled);
    if (outcome.visible_ms < 0) {
      std::cerr << "perfbench_tool: edit of " << edit.target << " never became visible\n";
      return 1;
    }
    out << outcome.visible_ms << '\t' << outcome.reply << '\n';
  }
  return out ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool loadgen|edit|trace-map|trace-serve|trace-churn ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    perfbench::Args args(argc - 2, argv + 2);
    if (command == "loadgen") return perfbench::Loadgen(args);
    if (command == "edit") return perfbench::EditCommand(args);
    if (command == "trace-map") return perfbench::TraceMap(args);
    if (command == "trace-serve") return perfbench::TraceServe(args);
    if (command == "trace-churn") return perfbench::TraceChurn(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_tool: unknown command " << command << "\n";
  return 2;
}
