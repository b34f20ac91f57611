// Open-loop UDP load generator for routedbd, plus the map edits the churn
// workload applies while it runs.
//
// One sender thread sends request i at t0 + i / rate whether or not earlier
// requests were answered (open loop), and retransmits the same request id every
// kRetransmitNs until a terminal reply arrives or kDeadlineNs passes, as `routedb
// query` does.  One receiver thread matches replies to requests.  Latency counts
// from each request's scheduled send time, so a stall in the daemon (or in the
// generator itself) shows up in every request queued behind it.  Both threads
// busy-wait rather than sleep, so the generator's own wake-ups stay out of the
// latencies; each can be pinned to a CPU of its own.
//
// Replies are recorded, not judged: each distinct (destination, epoch window,
// status, via, route) combination is kept with a count, and the benchmark checks
// every combination against its own lookup over the pathalias route text.  The
// epoch window [lo, hi] brackets the map generation that can have answered: lo is
// the number of edits already visible when the request was first sent, hi the
// number signalled when its reply arrived.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

// One request: up to wire::kMaxQueriesPerRequest destination names.
using Request = std::vector<std::string>;

// An unanswered request is sent again with the same id this often, as `routedb
// query` does by default.
constexpr int64_t kRetransmitNs = 1'000'000'000;
// A request still unanswered this long after its scheduled time has failed.
// `routedb query` gives up after 5 s, but a shared virtual machine stalls for
// seconds now and then, which is not the daemon's failure.
constexpr int64_t kDeadlineNs = 10'000'000'000;
// Churn: each edit starts this long after the previous one became visible (the
// first this long after the load starts).  A reload stalls the loop for about
// 1 s and drops what overflows the socket buffer; with retransmits every 1 s, a
// fixed period near 2 s could send every retry of an unlucky request into a
// stall, while a gap of 1.5 s after each stall lets the second retry through for
// any stall shorter than 2 s.
constexpr int64_t kEditGapNs = 1'500'000'000;
// An edit's sentinel is asked for this often until it resolves, and the edit
// has failed if it does not resolve within kEditTimeoutNs.
constexpr int64_t kEditProbeNs = 1'000'000;
constexpr int64_t kEditTimeoutNs = 30'000'000'000;

// Pins the calling thread to `cpu` (-1: leave it to the scheduler).
void PinThread(int cpu);

// Reads one request per line, destinations separated by tabs.
std::vector<Request> ReadRequests(const std::string& path);

// One churn edit: `source` (a prepared copy of the edited site file) is renamed
// over `target`, then the daemon is sent SIGHUP; the edit is visible once a
// query for `sentinel` (a host the edit adds) resolves exactly.
struct Edit {
  std::string target;
  std::string source;
  std::string sentinel;
};

// Reads one edit per line: target, source and sentinel separated by tabs.
std::vector<Edit> ReadPlan(const std::string& path);

struct EditOutcome {
  double visible_ms = -1;  // SIGHUP -> first reply resolving the sentinel; <0: never
  std::string reply;       // "status\tvia\troute" of that reply
};

// Applies `edit` to the daemon `pid` serving UDP `port` and probes the sentinel
// every kEditProbeNs until it resolves or kEditTimeoutNs passes.  `signalled` is
// incremented just before the signal is sent.
EditOutcome ApplyEdit(uint16_t port, pid_t pid, const Edit& edit,
                      std::atomic<uint32_t>* signalled);

struct LoadOptions {
  uint16_t port = 0;
  double rate = 1000;           // requests per second
  double seconds = 1;           // sending window
  uint64_t id_base = 1;         // request ids are id_base + i
  uint32_t epoch_base = 0;      // generation already live when the run starts
  int sender_cpu = -1;          // CPU to pin each thread to; -1: not pinned
  int receiver_cpu = -1;
  // Churn: edits applied in order to daemon `pid`, kEditGapNs apart, while an
  // edit can still start a gap before the sending window closes.
  pid_t pid = 0;
  std::vector<Edit> edits;
};

struct LoadResult {
  uint64_t attempted = 0;    // requests scheduled
  uint64_t completed = 0;    // answered in full
  uint64_t timed_out = 0;    // no terminal reply before the deadline
  uint64_t overloaded = 0;   // shed by the daemon (overloaded reply)
  uint64_t bad_replies = 0;  // undecodable, truncated or short replies
  uint64_t retransmits = 0;
  double elapsed_s = 0;      // first scheduled send -> last reply that completed a request
  std::vector<double> latency_us;  // per completed request
  std::vector<double> late_us;     // per request: actual first send - scheduled
  std::unordered_map<std::string, uint64_t> replies;  // see the file comment
  std::vector<EditOutcome> edits;
};

LoadResult RunLoad(const LoadOptions& options, const std::vector<Request>& pool);

// Writes <prefix>.json (counts and edits), <prefix>.lat and <prefix>.late (raw
// float64 samples, microseconds) and <prefix>.replies (one combination a line:
// dest, lo, hi, status, via, route, count — tab separated).
bool WriteLoadResult(const LoadResult& result, const std::string& prefix);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
