#include "perfbench/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "src/net/wire.h"

namespace perfbench {

namespace wire = pathalias::net;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Sleeps until shortly before `deadline_ns`, then spins: a wake-up from sleep
// takes tens of microseconds on a virtual CPU, which would land in every
// measured latency (they count from the scheduled time).
void WaitUntil(int64_t deadline_ns) {
  for (int64_t left = deadline_ns - NowNs(); left > 0; left = deadline_ns - NowNs()) {
    if (left > 100'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 80'000));
    } else {
      CpuRelax();
    }
  }
}

// Keeps the calling thread off the sender's and receiver's CPUs, where it would
// take scheduler slices from a busy-waiting thread.
void AvoidCpus(int sender_cpu, int receiver_cpu) {
  cpu_set_t set;
  if (sender_cpu < 0 || receiver_cpu < 0 ||
      pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return;
  }
  CPU_CLR(sender_cpu, &set);
  CPU_CLR(receiver_cpu, &set);
  if (CPU_COUNT(&set) > 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
}

// A UDP socket connected to the daemon on loopback.
int ConnectUdp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("socket failed");
  }
  int buffer = 8 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer, sizeof(buffer));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer, sizeof(buffer));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  return fd;
}

std::string EncodeNames(uint64_t id, const Request& request) {
  std::vector<std::string_view> views(request.begin(), request.end());
  std::string datagram;
  if (!wire::EncodeRequest(id, views, &datagram)) {
    throw std::runtime_error("request violates the wire bounds");
  }
  return datagram;
}

std::string Describe(const wire::ReplyResult& result) {
  std::string text = std::to_string(result.status);
  text += '\t';
  text += result.via;
  text += '\t';
  text += result.route;
  return text;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) {
      return fields;
    }
    start = tab + 1;
  }
}

}  // namespace

void PinThread(int cpu) {
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::vector<Request> ReadRequests(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<Request> pool;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      pool.push_back(SplitTabs(line));
    }
  }
  if (pool.empty()) {
    throw std::runtime_error(path + " holds no requests");
  }
  return pool;
}

std::vector<Edit> ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<Edit> plan;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> fields = SplitTabs(line);
    if (fields.size() != 3) {
      throw std::runtime_error("bad plan line: " + line);
    }
    plan.push_back({fields[0], fields[1], fields[2]});
  }
  return plan;
}

EditOutcome ApplyEdit(uint16_t port, pid_t pid, const Edit& edit,
                      std::atomic<uint32_t>* signalled) {
  EditOutcome outcome;
  std::filesystem::rename(edit.source, edit.target);
  int fd = ConnectUdp(port);
  signalled->fetch_add(1);
  int64_t start = NowNs();
  ::kill(pid, SIGHUP);
  const int64_t give_up = start + kEditTimeoutNs;
  uint64_t id = (static_cast<uint64_t>(pid) << 40) | (static_cast<uint64_t>(start) & 0xffffffffffu);
  std::vector<char> buffer(wire::kMaxDatagramBytes);
  std::string error;
  while (NowNs() < give_up && outcome.visible_ms < 0) {
    std::string datagram = EncodeNames(++id, Request{edit.sentinel});
    ::send(fd, datagram.data(), datagram.size(), 0);
    int64_t next_probe = NowNs() + kEditProbeNs;
    for (;;) {
      int64_t wait_ns = next_probe - NowNs();
      pollfd pfd{fd, POLLIN, 0};
      if (wait_ns <= 0 || ::poll(&pfd, 1, static_cast<int>(wait_ns / 1'000'000) + 1) <= 0) {
        break;
      }
      ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
      wire::DecodedReply reply;
      if (n <= 0 || !wire::DecodeReply(std::string_view(buffer.data(), n), &reply, &error) ||
          reply.results.size() != 1) {
        continue;
      }
      if (reply.results[0].status == wire::kResultExact) {
        outcome.visible_ms = static_cast<double>(NowNs() - start) / 1e6;
        outcome.reply = Describe(reply.results[0]);
        break;
      }
    }
  }
  ::close(fd);
  return outcome;
}

LoadResult RunLoad(const LoadOptions& options, const std::vector<Request>& pool) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us: sleeps end close to their deadline
  const uint64_t count = static_cast<uint64_t>(options.rate * options.seconds);
  const int64_t interval_ns = static_cast<int64_t>(1e9 / options.rate);

  // Per-request state: 0 pending, 1 answered, 2 overloaded, 3 bad reply, 4 timed out.
  std::vector<std::atomic<uint8_t>> state(count);
  std::vector<std::atomic<uint32_t>> epoch_lo(count);
  std::atomic<uint32_t> signalled{options.epoch_base};
  std::atomic<uint32_t> visible{options.epoch_base};
  std::atomic<bool> finished{false};

  for (const Request& request : pool) {
    EncodeNames(0, request);  // throws here, before any thread starts, if one is invalid
  }
  LoadResult result;
  result.attempted = count;
  result.late_us.reserve(count);
  result.latency_us.reserve(count);
  int fd = ConnectUdp(options.port);
  const int64_t t0 = NowNs() + 20'000'000;

  // The receiver polls without blocking, for the same reason the sender spins.
  std::thread receiver([&] {
    PinThread(options.receiver_cpu);
    std::vector<char> buffer(wire::kMaxDatagramBytes);
    wire::DecodedReply reply;
    std::string error;
    std::string key;
    while (!finished.load()) {
      ssize_t n = ::recv(fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
      if (n <= 0) {
        CpuRelax();
        continue;
      }
      int64_t now = NowNs();
      if (!wire::DecodeReply(std::string_view(buffer.data(), n), &reply, &error) ||
          reply.request_id < options.id_base || reply.request_id - options.id_base >= count) {
        ++result.bad_replies;
        continue;
      }
      uint64_t index = reply.request_id - options.id_base;
      const Request& request = pool[index % pool.size()];
      uint8_t outcome = 1;
      if (reply.flags & wire::kReplyFlagOverloaded) {
        outcome = 2;
      } else if ((reply.flags & (wire::kReplyFlagTruncated | wire::kReplyFlagBadRequest)) ||
                 reply.results.size() != request.size()) {
        outcome = 3;
      }
      uint8_t expected = 0;
      if (!state[index].compare_exchange_strong(expected, outcome)) {
        continue;  // a reply to a retransmission, or after the deadline
      }
      if (outcome != 1) {
        ++(outcome == 2 ? result.overloaded : result.bad_replies);
        continue;
      }
      ++result.completed;
      result.elapsed_s = static_cast<double>(now - t0) / 1e9;
      result.latency_us.push_back(static_cast<double>(now - (t0 + int64_t(index) * interval_ns)) /
                                  1e3);
      const std::string lo = std::to_string(epoch_lo[index].load(std::memory_order_acquire));
      const std::string hi = std::to_string(signalled.load());
      for (size_t j = 0; j < request.size(); ++j) {
        key = request[j];
        key += '\t';
        key += lo;
        key += '\t';
        key += hi;
        key += '\t';
        key += Describe(reply.results[j]);
        ++result.replies[key];
      }
    }
  });

  std::thread editor;
  std::exception_ptr editor_error;
  if (options.pid != 0 && !options.edits.empty()) {
    editor = std::thread([&] {
      AvoidCpus(options.sender_cpu, options.receiver_cpu);
      try {
        const int64_t last_start = t0 + static_cast<int64_t>(options.seconds * 1e9) - kEditGapNs;
        int64_t next = t0 + kEditGapNs;
        for (size_t k = 0; k < options.edits.size() && next <= last_start; ++k) {
          WaitUntil(next);
          EditOutcome outcome = ApplyEdit(options.port, options.pid, options.edits[k],
                                          &signalled);
          result.edits.push_back(outcome);
          if (outcome.visible_ms < 0) {
            break;
          }
          visible.fetch_add(1);
          next = NowNs() + kEditGapNs;
        }
      } catch (...) {
        editor_error = std::current_exception();
      }
    });
  }

  // Sender: scheduled sends interleaved with retransmissions of overdue requests.
  struct Pending {
    uint64_t index;
    int64_t due_ns;
  };
  std::deque<Pending> pending;
  auto send_request = [&](uint64_t index) {
    std::string datagram = EncodeNames(options.id_base + index, pool[index % pool.size()]);
    ::send(fd, datagram.data(), datagram.size(), 0);
  };
  auto service_pending = [&](int64_t now) {
    while (!pending.empty() && pending.front().due_ns <= now) {
      Pending item = pending.front();
      pending.pop_front();
      if (state[item.index].load() != 0) {
        continue;
      }
      if (now - (t0 + int64_t(item.index) * interval_ns) >= kDeadlineNs) {
        uint8_t expected = 0;
        if (state[item.index].compare_exchange_strong(expected, 4)) {
          ++result.timed_out;
        }
        continue;
      }
      send_request(item.index);
      ++result.retransmits;
      pending.push_back({item.index, now + kRetransmitNs});
    }
  };
  PinThread(options.sender_cpu);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t scheduled = t0 + int64_t(i) * interval_ns;
    WaitUntil(scheduled);
    int64_t now = NowNs();
    result.late_us.push_back(static_cast<double>(now - scheduled) / 1e3);
    epoch_lo[i].store(visible.load(), std::memory_order_release);
    send_request(i);
    pending.push_back({i, now + kRetransmitNs});
    service_pending(now);
  }
  for (;;) {
    while (!pending.empty() && state[pending.front().index].load() != 0) {
      pending.pop_front();
    }
    if (pending.empty()) {
      break;
    }
    WaitUntil(std::min(pending.front().due_ns, NowNs() + 1'000'000));
    service_pending(NowNs());
  }
  if (editor.joinable()) {
    editor.join();
  }
  finished.store(true);
  receiver.join();
  ::close(fd);
  if (editor_error) {
    std::rethrow_exception(editor_error);
  }
  return result;
}

bool WriteLoadResult(const LoadResult& result, const std::string& prefix) {
  auto write_samples = [](const std::vector<double>& samples, const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(samples.data()),
              static_cast<std::streamsize>(samples.size() * sizeof(double)));
    return static_cast<bool>(out);
  };
  std::ofstream replies(prefix + ".replies", std::ios::trunc);
  for (const auto& [key, n] : result.replies) {
    replies << key << '\t' << n << '\n';
  }
  std::ostringstream json;
  json << "{\"attempted\": " << result.attempted << ", \"completed\": " << result.completed
       << ", \"timed_out\": " << result.timed_out << ", \"overloaded\": " << result.overloaded
       << ", \"bad_replies\": " << result.bad_replies
       << ", \"retransmits\": " << result.retransmits << ", \"elapsed_s\": " << result.elapsed_s
       << ", \"edits\": [";
  for (size_t k = 0; k < result.edits.size(); ++k) {
    std::string reply = result.edits[k].reply;
    for (char& c : reply) {
      if (c == '\t') c = ' ';
    }
    json << (k ? ", " : "") << "{\"visible_ms\": " << result.edits[k].visible_ms
         << ", \"reply\": \"" << reply << "\"}";
  }
  json << "]}\n";
  std::ofstream summary(prefix + ".json", std::ios::trunc);
  summary << json.str();
  return write_samples(result.latency_us, prefix + ".lat") &&
         write_samples(result.late_us, prefix + ".late") && static_cast<bool>(replies) &&
         static_cast<bool>(summary);
}

}  // namespace perfbench
