// Serving side of the harness: the cgps_serve daemon as a child process and
// an open-loop load generator that talks the wire protocol over loopback.
#pragma once

#include "common.hpp"
#include "serve/serve.hpp"

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace cgps::perfbench {

// A `cgps_serve --demo` child process on an ephemeral loopback port.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawn `binary --demo --designs <designs> --port 0` with this process's
  // environment plus `extra_env` ("NAME=value" entries, which win), and wait
  // until it prints its listening line. False when it exits or stays silent
  // for `timeout_s`.
  bool start(const std::string& binary, const std::string& designs,
             const std::vector<std::string>& extra_env, double timeout_s = 60.0);

  // Spawn -> listening line, seconds.
  double startup_s() const { return startup_s_; }
  int port() const { return port_; }

  // Peak resident set of the daemon (VmHWM), bytes; 0 when unknown.
  double peak_rss_bytes() const;

  // SIGTERM (the daemon drains, then exits) and wait for the exit; SIGKILL
  // after a grace period. True when it exited with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  double startup_s_ = 0.0;
};

// Requests per window of PhaseResult::p99_window_median_ms (ten samples lie
// beyond each window's p99).
inline constexpr std::size_t kP99Window = 1000;

// One request of an open-loop phase and what happened to it.
struct Outcome {
  double due_s = 0.0;   // scheduled send time (now_s() scale)
  double sent_s = 0.0;  // actual send time
  double done_s = 0.0;  // response received
  bool answered = false;
  serve::Status status = serve::Status::kError;
  float value = 0.0f;
  std::int64_t server_us = 0;
};

struct PhaseResult {
  double rate = 0.0;  // offered requests per second
  std::vector<Outcome> outcomes;  // aligned with the phase's requests
  std::int64_t ok = 0;
  std::int64_t shed = 0;        // kTimeout
  std::int64_t overloaded = 0;  // kOverloaded
  std::int64_t other = 0;       // any other non-ok status
  std::int64_t unanswered = 0;  // transport failure or no reply in time
  std::vector<double> latency_ms;  // ok requests, due -> reply
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  // Median over consecutive windows of kP99Window ok requests of each
  // window's p99: the tail a request usually sees, robust to one host stall.
  double p99_window_median_ms = 0.0;
  double lateness_p99_ms = 0.0;  // generator lateness, sent - due
  double lateness_max_ms = 0.0;
  bool backlog_growing = false;

  std::int64_t failed() const { return shed + overloaded + other + unanswered; }
};

// Median over consecutive windows of kP99Window latencies of each window's
// p99 (the whole sample is one window when it is shorter than that).
double p99_window_median(const std::vector<double>& latency_ms);

// Unit-rate Poisson arrival offsets (seconds) for `n` requests; divide by a
// rate to get that rate's schedule. The same seed gives the same pattern.
std::vector<double> unit_poisson_offsets(std::size_t n, std::uint64_t seed);

// Send `requests` to 127.0.0.1:`port` over one connection, request i due at
// start + unit_offsets[i] / rate, regardless of replies (open loop), and
// collect the replies. Waits at most `drain_s` after the last due time.
PhaseResult run_phase(int port, const std::vector<serve::Request>& requests,
                      const std::vector<double>& unit_offsets, double rate,
                      double drain_s = 3.0);

// Closed loop over one connection: `window` requests in flight, each answer
// releases the next request, until all are answered. Measures how many
// requests per second the daemon answers when it always has work queued.
struct WindowResult {
  std::int64_t ok = 0;
  std::int64_t failed = 0;  // non-ok answers and requests left unanswered
  double seconds = 0.0;     // first send -> last answer
};
WindowResult run_window(int port, const std::vector<serve::Request>& requests,
                        std::size_t window, double timeout_s = 30.0);

// Serve-layer metrics of one phase: batch sizes and queue waits from the
// daemons' access logs (records whose wire id belongs to the phase; one log
// per daemon, since batch ids restart with each), server time from the
// replies, wire time = client-observed minus server time.
void add_serve_layer_metrics(const PhaseResult& phase,
                             const std::vector<serve::Request>& requests,
                             const std::vector<std::string>& access_logs, double startup_s,
                             RunResult& result);

}  // namespace cgps::perfbench
