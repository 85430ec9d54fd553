// TCP front end of cgps_serve (DESIGN.md §11): a loopback listener accepting
// length-prefixed request frames (serve/protocol.hpp), one reader thread per
// connection, responses written back under a per-connection mutex from
// whichever thread finishes the request (admission for rejects, the batching
// thread for served work). Requests on one connection are pipelined — the
// client needn't wait for a response before sending the next frame; responses
// carry the request id, so ordering is the client's concern.
#pragma once

#include "serve/core.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cgps::serve {

class ServeServer {
 public:
  // Binds 127.0.0.1:`port`; port 0 asks the kernel for an ephemeral port
  // (tests / parallel CI), readable via port() after start().
  ServeServer(ServeCore& core, int port);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Bind + listen + spawn the accept thread. False on bind/listen failure
  // (port in use, no permission) — error already logged.
  bool start();

  // Stop accepting, shut every live connection, join all threads. The core
  // is NOT stopped — callers own its drain (tools/cgps_serve stops the
  // server first, then drains the core, so accepted work still completes).
  void stop();

  int port() const { return port_; }

 private:
  struct Connection {
    // Closed (and set to -1) by the reader on exit, under write_mu after
    // `open` goes false, so no writer can hit a reused descriptor number.
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    // Responses accumulate here (under write_mu) and go out in one write(2)
    // at each batch boundary (ServeCore cycle hook) — the syscall-per-
    // response cost is what would otherwise cap pipelined throughput.
    std::vector<std::uint8_t> out_buf;
    std::thread reader;
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  // Join the readers of connections that have closed since the last call.
  void join_finished();
  static void flush_connection(Connection& conn);
  void flush_all();

  ServeCore& core_;
  int requested_port_;
  int port_ = 0;
  int listen_fd_ = -1;
  // Live connection count behind the serve.active_connections gauge:
  // incremented at accept, decremented when the reader thread exits (the
  // serve.connections counter stays lifetime-monotonic).
  std::atomic<int> active_conns_{0};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  // Live connections only: a reader moves its connection to finished_ as it
  // exits, and the accept thread (or stop) joins it from there.
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::shared_ptr<Connection>> finished_;
};

}  // namespace cgps::serve
