#ifndef KELPIE_SERVE_TCP_SERVER_H_
#define KELPIE_SERVE_TCP_SERVER_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "serve/server.h"

namespace kelpie {
namespace serve {

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available from port() after Start().
  int port = 0;
  /// Per-connection pipelining cap: a reader that is this many responses
  /// ahead of its writer blocks instead of buffering futures unboundedly.
  /// The server-side queue bound (ServerOptions::max_queue_depth) is the
  /// real admission control; this only bounds per-connection memory.
  size_t max_pipeline = 128;
  /// Checked alongside Shutdown() in the accept loop, so the CLI's
  /// SIGINT/SIGTERM token stops the front end too.
  CancelToken cancel;
};

/// Line-protocol TCP front end over a serve::Server. One reader thread per
/// connection parses newline-delimited JSON requests and submits them;
/// a paired writer thread sends responses back in request order (futures
/// are waited FIFO), so each connection's response stream is deterministic
/// whenever the responses themselves are.
///
/// A request line with op "shutdown" stops the whole front end (the CI
/// smoke job uses it for a clean exit with flushed metrics).
class TcpServer {
 public:
  TcpServer(Server& server, TcpServerOptions options);
  ~TcpServer();

  /// Binds and listens; fills port(). Separate from Run() so callers can
  /// print the bound address before serving.
  Status Start();

  int port() const { return port_; }

  /// Accept loop; returns once Shutdown() is called (or the cancel token
  /// fires), after every connection thread has drained and joined.
  void Run();

  /// Asynchronously stops Run(): no new connections, readers stop at the
  /// next poll tick, writers drain their pipelines.
  void Shutdown() { stop_.store(true, std::memory_order_release); }

  bool shutdown_requested() const {
    return stop_.load(std::memory_order_acquire) ||
           options_.cancel.cancelled();
  }

  /// Connection handler threads started and not yet joined, as of the
  /// accept loop's last wake-up (it wakes at least every 100 ms and joins
  /// the handlers whose connection has closed).
  size_t unjoined_handlers() const {
    return unjoined_handlers_.load(std::memory_order_relaxed);
  }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

 private:
  void HandleConnection(int fd);
  void HandleLine(const std::string& line, class ConnectionPipeline& out);

  Server& server_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> unjoined_handlers_{0};
};

}  // namespace serve
}  // namespace kelpie

#endif  // KELPIE_SERVE_TCP_SERVER_H_
