#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <thread>
#include <utility>

#include "serve/line_protocol.h"

namespace kelpie {
namespace serve {

namespace {

/// Writes all of `data` (+ newline) to `fd`; false on a broken connection.
bool SendLine(int fd, const std::string& data) {
  std::string line = data;
  line.push_back('\n');
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

/// The FIFO between a connection's reader and writer. Each slot is either a
/// ready line (control ops, parse errors) or a future the writer resolves;
/// popping in push order keeps responses in request order.
class ConnectionPipeline {
 public:
  struct Slot {
    enum class Kind { kReady, kScore, kExplain } kind = Kind::kReady;
    uint64_t id = 0;
    std::string ready;
    std::future<ScoreResult> score;
    std::future<ExplainResult> explain;
  };

  explicit ConnectionPipeline(size_t max_pipeline)
      : max_pipeline_(max_pipeline) {}

  /// Blocks while the pipeline is at capacity (backpressure on the reader).
  void Push(Slot slot) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return slots_.size() < max_pipeline_; });
    slots_.push_back(std::move(slot));
    cv_.notify_all();
  }

  /// Marks the reader finished: the writer drains what is left and exits.
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    cv_.notify_all();
  }

  /// Pops the next slot in order; false when finished and drained.
  bool Pop(Slot* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !slots_.empty() || finished_; });
    if (slots_.empty()) return false;
    *out = std::move(slots_.front());
    slots_.pop_front();
    cv_.notify_all();
    return true;
  }

 private:
  const size_t max_pipeline_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Slot> slots_;
  bool finished_ = false;
};

TcpServer::TcpServer(Server& server, TcpServerOptions options)
    : server_(server), options_(std::move(options)) {}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::Ok();
}

void TcpServer::Run() {
  /// A connection's handler thread and the flag it raises as it exits, so
  /// the accept loop can join it without blocking. List nodes never move,
  /// so the thread may keep a reference to its own flag.
  struct Handler {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::list<Handler> handlers;
  // An exited handler keeps its stack mapped until it is joined, so join
  // finished ones at every wake-up instead of at shutdown.
  auto join_finished = [&] {
    std::erase_if(handlers, [](Handler& h) {
      if (!h.finished.load(std::memory_order_acquire)) return false;
      h.thread.join();
      return true;
    });
    unjoined_handlers_.store(handlers.size(), std::memory_order_relaxed);
  };
  while (!shutdown_requested()) {
    join_finished();
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flags
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    Handler& handler = handlers.emplace_back();
    handler.thread = std::thread([this, fd, &handler] {
      HandleConnection(fd);
      handler.finished.store(true, std::memory_order_release);
    });
    unjoined_handlers_.store(handlers.size(), std::memory_order_relaxed);
  }
  for (Handler& h : handlers) h.thread.join();
  unjoined_handlers_.store(0, std::memory_order_relaxed);
}

void TcpServer::HandleLine(const std::string& line, ConnectionPipeline& out) {
  ConnectionPipeline::Slot slot;
  Result<LineRequest> parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    slot.ready = ErrorResponseLine(PeekLineId(line), parsed.status());
    out.Push(std::move(slot));
    return;
  }
  const LineRequest& req = *parsed;
  slot.id = req.id;
  if (req.op == "ping") {
    slot.ready = PingResponseLine(req.id);
    out.Push(std::move(slot));
    return;
  }
  if (req.op == "health") {
    // Readiness for load balancers and the chaos-smoke job: "draining"
    // once shutdown was requested (pipelined lines received before the
    // drain still get answers; new connections are refused). Warm state
    // rides along: the mimic warm-start flag and the relevance cache's
    // ready-entry count.
    const auto& engine_options = server_.options().kelpie.engine;
    const size_t cache_entries =
        engine_options.relevance_cache != nullptr
            ? engine_options.relevance_cache->stats().entries
            : 0;
    slot.ready = HealthResponseLine(req.id, shutdown_requested(),
                                    engine_options.warm_start_mimics,
                                    cache_entries);
    out.Push(std::move(slot));
    return;
  }
  if (req.op == "stats") {
    slot.ready = StatsResponseLine(req.id, server_.queue_depth(),
                                   server_.pool().size(),
                                   server_.options().max_queue_depth);
    out.Push(std::move(slot));
    return;
  }
  if (req.op == "shutdown") {
    slot.ready = ShutdownResponseLine(req.id);
    out.Push(std::move(slot));
    Shutdown();
    return;
  }
  const Dataset& dataset = server_.dataset();
  Result<int32_t> head = dataset.entities().Find(req.head);
  Result<int32_t> relation = dataset.relations().Find(req.relation);
  Result<int32_t> tail = dataset.entities().Find(req.tail);
  for (const Status& status :
       {head.status(), relation.status(), tail.status()}) {
    if (!status.ok()) {
      slot.ready = ErrorResponseLine(req.id, status);
      out.Push(std::move(slot));
      return;
    }
  }
  const Triple triple(*head, *relation, *tail);
  Deadline admission;  // infinite
  if (req.shed_after_seconds >= 0.0) {
    admission = Deadline::After(req.shed_after_seconds);
  }
  if (req.op == "score") {
    slot.kind = ConnectionPipeline::Slot::Kind::kScore;
    slot.score = server_.Submit(ScoreRequest{triple, admission});
  } else {
    ExplainRequest explain;
    explain.prediction = triple;
    explain.target = req.head_query ? PredictionTarget::kHead
                                    : PredictionTarget::kTail;
    explain.kind = req.sufficient ? ExplanationKind::kSufficient
                                  : ExplanationKind::kNecessary;
    explain.work_budget = req.work_budget;
    explain.timeout_seconds = req.timeout_seconds;
    explain.admission_deadline = admission;
    slot.kind = ConnectionPipeline::Slot::Kind::kExplain;
    slot.explain = server_.SubmitExplain(std::move(explain));
  }
  out.Push(std::move(slot));
}

void TcpServer::HandleConnection(int fd) {
  ConnectionPipeline pipeline(options_.max_pipeline);
  std::thread writer([this, fd, &pipeline] {
    ConnectionPipeline::Slot slot;
    while (pipeline.Pop(&slot)) {
      std::string line;
      switch (slot.kind) {
        case ConnectionPipeline::Slot::Kind::kReady:
          line = std::move(slot.ready);
          break;
        case ConnectionPipeline::Slot::Kind::kScore: {
          ScoreResult result = slot.score.get();
          line = result.status.ok()
                     ? ScoreResponseLine(slot.id, result.score)
                     : ErrorResponseLine(slot.id, result.status);
          break;
        }
        case ConnectionPipeline::Slot::Kind::kExplain: {
          ExplainResult result = slot.explain.get();
          line = result.status.ok()
                     ? ExplainResponseLine(slot.id, result.explanation,
                                           result.conversion_set,
                                           server_.dataset())
                     : ErrorResponseLine(slot.id, result.status);
          break;
        }
      }
      if (!SendLine(fd, line)) break;
    }
  });

  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !shutdown_requested()) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      open = false;  // EOF or error: drain what we have and finish
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      // Lines already buffered are in-flight work: a drain (shutdown op or
      // SIGTERM) finishes them instead of dropping them mid-parse — the
      // outer loop stops *reading* once shutdown is requested.
      HandleLine(line, pipeline);
    }
  }
  pipeline.Finish();
  writer.join();
  ::close(fd);
}

}  // namespace serve
}  // namespace kelpie
