#include "serve_load.hpp"

#include "serve/protocol.hpp"
#include "util/rng.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <thread>

extern char** environ;

namespace cgps::perfbench {

namespace {

std::string env_name(const std::string& entry) { return entry.substr(0, entry.find('=')); }

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

bool Daemon::start(const std::string& binary, const std::string& designs,
                   const std::vector<std::string>& extra_env, double timeout_s) {
  stop();
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;

  std::set<std::string> overridden;
  for (const std::string& e : extra_env) overridden.insert(env_name(e));
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (overridden.count(env_name(*e)) == 0) env_strings.emplace_back(*e);
  }
  env_strings.insert(env_strings.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::vector<std::string> args = {binary, "--demo", "--designs", designs, "--port", "0"};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const double t0 = now_s();
  const int rc =
      posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    std::fprintf(stderr, "perfbench: cannot spawn %s: %s\n", binary.c_str(), std::strerror(rc));
    ::close(fds[0]);
    pid_ = -1;
    return false;
  }
  out_fd_ = fds[0];

  // The daemon prints "cgps_serve listening on 127.0.0.1:<port> (...)" once
  // it accepts connections.
  const std::string marker = "listening on 127.0.0.1:";
  std::string seen;
  while (now_s() - t0 < timeout_s) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 20) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) break;  // exited before listening
    seen.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = seen.find(marker);
    if (at != std::string::npos && seen.find('\n', at) != std::string::npos) {
      startup_s_ = now_s() - t0;
      port_ = std::atoi(seen.c_str() + at + marker.size());
      return port_ > 0;
    }
  }
  std::fprintf(stderr, "perfbench: cgps_serve did not start listening\n");
  stop();
  return false;
}

double Daemon::peak_rss_bytes() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) * 1024.0;  // kB
  }
  return 0.0;
}

bool Daemon::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const double t0 = now_s();
  while (now_s() - t0 < 20.0) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double p99_window_median(const std::vector<double>& latency_ms) {
  std::vector<double> window_p99;
  for (std::size_t w = 0; w + kP99Window <= latency_ms.size() || w == 0; w += kP99Window) {
    const std::size_t end = std::min(latency_ms.size(), w + kP99Window);
    window_p99.push_back(quantile({latency_ms.begin() + static_cast<std::ptrdiff_t>(w),
                                   latency_ms.begin() + static_cast<std::ptrdiff_t>(end)},
                                  0.99));
  }
  return median(window_p99);
}

std::vector<double> unit_poisson_offsets(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> offsets(n);
  double t = 0.0;
  for (double& o : offsets) {
    t += -std::log(1.0 - rng.uniform());
    o = t;
  }
  return offsets;
}

PhaseResult run_phase(int port, const std::vector<serve::Request>& requests,
                      const std::vector<double>& unit_offsets, double rate, double drain_s) {
  PhaseResult r;
  r.rate = rate;
  const std::size_t n = requests.size();
  r.outcomes.resize(n);
  if (n == 0) return r;
  const std::uint64_t first_id = requests.front().id;

  const int fd = connect_loopback(port);
  if (fd >= 0) {
    const double t0 = now_s() + 0.005;
    for (std::size_t i = 0; i < n; ++i) r.outcomes[i].due_s = t0 + unit_offsets[i] / rate;

    // One thread sends and receives, polling instead of sleeping: a sleeping
    // generator on a virtual host wakes milliseconds late at p99, and that
    // lateness would be billed to the daemon. It keeps one core busy.
    std::vector<std::uint8_t> out, in, payload;
    std::size_t next = 0, answered = 0, pos = 0;
    const double give_up = r.outcomes.back().due_s + drain_s;
    bool open = true;
    while (open && answered < n) {
      const double now = now_s();
      if (now > give_up) break;
      if (next < n && r.outcomes[next].due_s <= now) {
        out.clear();
        const std::size_t begin = next;
        for (; next < n && r.outcomes[next].due_s <= now; ++next)
          serve::append_frame(out, serve::encode_request(requests[next]));
        if (!serve::write_all_bytes(fd, out.data(), out.size())) break;
        const double sent = now_s();
        for (std::size_t j = begin; j < next; ++j) r.outcomes[j].sent_s = sent;
      }
      std::uint8_t chunk[65536];
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) break;
      if (got < 0) continue;
      const double done = now_s();
      in.insert(in.end(), chunk, chunk + got);
      for (;;) {
        const serve::FrameScan scan = serve::scan_frame(in, pos, payload);
        if (scan == serve::FrameScan::kNeedMore) break;
        if (scan == serve::FrameScan::kCorrupt) {
          open = false;
          break;
        }
        const auto response = serve::decode_response(payload);
        if (!response.has_value() || response->id < first_id) continue;
        const std::size_t k = static_cast<std::size_t>(response->id - first_id);
        if (k >= n || r.outcomes[k].answered) continue;
        Outcome& o = r.outcomes[k];
        o.answered = true;
        o.done_s = done;
        o.status = response->status;
        o.value = response->value;
        o.server_us = response->server_us;
        ++answered;
      }
      if (pos > 65536) {
        in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(pos));
        pos = 0;
      }
    }
    ::close(fd);
  }

  std::vector<double> lateness;
  for (const Outcome& o : r.outcomes) {
    if (o.sent_s > 0) lateness.push_back((o.sent_s - o.due_s) * 1e3);
    if (!o.answered) {
      ++r.unanswered;
    } else if (o.status == serve::Status::kOk) {
      ++r.ok;
      r.latency_ms.push_back((o.done_s - o.due_s) * 1e3);
    } else if (o.status == serve::Status::kTimeout) {
      ++r.shed;
    } else if (o.status == serve::Status::kOverloaded) {
      ++r.overloaded;
    } else {
      ++r.other;
    }
  }
  r.p50_ms = quantile(r.latency_ms, 0.50);
  r.p99_ms = quantile(r.latency_ms, 0.99);
  r.p99_window_median_ms = p99_window_median(r.latency_ms);
  r.lateness_p99_ms = quantile(lateness, 0.99);
  r.lateness_max_ms = quantile(lateness, 1.0);
  // Backlog: latency still climbing at the end of the phase means the
  // daemon fell behind the offered rate even if the tail looked fine.
  const std::size_t q = r.latency_ms.size() / 4;
  if (q >= 10) {
    const std::vector<double> head(r.latency_ms.begin(), r.latency_ms.begin() + q);
    const std::vector<double> tail(r.latency_ms.end() - q, r.latency_ms.end());
    r.backlog_growing = median(tail) > 2.0 * median(head) + 5.0;
  }
  return r;
}

WindowResult run_window(int port, const std::vector<serve::Request>& requests,
                        std::size_t window, double timeout_s) {
  WindowResult r;
  const int fd = connect_loopback(port);
  if (fd < 0) {
    r.failed = static_cast<std::int64_t>(requests.size());
    return r;
  }
  std::vector<std::uint8_t> out, in, payload;
  std::size_t sent = 0, answered = 0, pos = 0;
  auto send_up_to = [&](std::size_t limit) {
    out.clear();
    for (; sent < limit && sent < requests.size(); ++sent)
      serve::append_frame(out, serve::encode_request(requests[sent]));
    return out.empty() || serve::write_all_bytes(fd, out.data(), out.size());
  };
  const double t0 = now_s();
  bool open = send_up_to(window);
  double last = t0;
  // Polls without sleeping, like run_phase: a client that wakes late would
  // let the daemon's queue run dry and understate its capacity.
  while (open && answered < requests.size() && now_s() - t0 < timeout_s) {
    std::uint8_t chunk[65536];
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) break;
    if (got < 0) continue;
    in.insert(in.end(), chunk, chunk + got);
    while (open) {
      const serve::FrameScan scan = serve::scan_frame(in, pos, payload);
      if (scan == serve::FrameScan::kNeedMore) break;
      if (scan == serve::FrameScan::kCorrupt) open = false;
      const auto response = serve::decode_response(payload);
      if (!open || !response.has_value()) continue;
      ++answered;
      (response->status == serve::Status::kOk ? r.ok : r.failed) += 1;
    }
    last = now_s();
    if (pos > 65536) {
      in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(pos));
      pos = 0;
    }
    open = open && send_up_to(answered + window);
  }
  ::close(fd);
  r.failed += static_cast<std::int64_t>(requests.size() - answered);
  r.seconds = last - t0;
  return r;
}

void add_serve_layer_metrics(const PhaseResult& phase,
                             const std::vector<serve::Request>& requests,
                             const std::vector<std::string>& access_logs, double startup_s,
                             RunResult& result) {
  std::set<std::uint64_t> ids;
  for (const serve::Request& req : requests) ids.insert(req.id);
  std::vector<double> sizes, queue_ms;
  for (const std::string& log : access_logs) {
    std::map<std::int64_t, double> batch_sizes;  // batch id -> size
    for (const JsonValue& rec : read_jsonl(log)) {
      const auto id = static_cast<std::uint64_t>(json_number(rec, "id", -1));
      if (ids.count(id) == 0) continue;
      queue_ms.push_back(json_number(rec, "queue_us") * 1e-3);
      const auto batch = static_cast<std::int64_t>(json_number(rec, "batch"));
      if (batch > 0) batch_sizes[batch] = json_number(rec, "batch_size");
    }
    for (const auto& [batch, size] : batch_sizes) sizes.push_back(size);
  }

  std::vector<double> server_ms, wire_ms;
  for (const Outcome& o : phase.outcomes) {
    if (!o.answered || o.status != serve::Status::kOk) continue;
    const double server = static_cast<double>(o.server_us) * 1e-3;
    server_ms.push_back(server);
    wire_ms.push_back((o.done_s - o.sent_s) * 1e3 - server);
  }
  result.add_layer("serve.batch_size.mean", mean(sizes), "requests");
  result.add_layer("serve.batch_size.p99", quantile(sizes, 0.99), "requests");
  result.add_layer("serve.queue_wait_ms.p50", quantile(queue_ms, 0.50), "ms");
  result.add_layer("serve.queue_wait_ms.p99", quantile(queue_ms, 0.99), "ms");
  result.add_layer("serve.server_ms.p50", quantile(server_ms, 0.50), "ms");
  result.add_layer("serve.wire_ms.p50", quantile(wire_ms, 0.50), "ms");
  result.add_layer("serve.shed", static_cast<double>(phase.shed), "count");
  result.add_layer("serve.rejected", static_cast<double>(phase.overloaded), "count");
  result.add_layer("serve.startup_s", startup_s, "s");
}

}  // namespace cgps::perfbench
