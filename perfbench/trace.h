// Traced replays: each times the calls into one workload's layers from outside
// the program (nothing inside src/ is instrumented) and writes a flat JSON object
// of per-layer figures for perfbench/run.py.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// "--key value" options plus positional arguments.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
        options_[arg.substr(2)] = argv[++i];
      } else {
        positional_.push_back(arg);
      }
    }
  }
  bool Has(const std::string& key) const { return options_.count(key) != 0; }
  std::string Get(const std::string& key) const {
    auto it = options_.find(key);
    if (it == options_.end()) {
      throw std::runtime_error("missing --" + key);
    }
    return it->second;
  }
  std::string Get(const std::string& key, const std::string& fallback) const {
    return Has(key) ? Get(key) : fallback;
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

// pathalias::Run's stages over map files, in its call order.
//   trace-map --local L --routes OUT --json OUT files...
int TraceMap(const Args& args);

// An in-process Daemon driven by PollOnce(0) under the workload's load, then the
// wire codec and the batch engine timed on the same requests.
//   trace-serve --image IMG --requests FILE --rate R --seconds S --json OUT --out PREFIX
//               [--daemon-cpu C --sender-cpu C --receiver-cpu C]
int TraceServe(const Args& args);

// The steps RolloverController::ReloadFromSources makes, replayed per edit.
//   trace-churn --image IMG --maps LIST --plan FILE --requests FILE --json OUT
int TraceChurn(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
