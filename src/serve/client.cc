#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "serve/line_protocol.h"

namespace kelpie {
namespace serve {

namespace {

struct ConnectionOutcome {
  Status status = Status::Ok();
  /// False when the connect itself failed (nothing was sent).
  bool connected = false;
  /// Complete response lines, in arrival order. The server answers each
  /// connection FIFO, so responses[k] answers the k-th line written.
  std::vector<std::string> responses;
};

/// Writes `lines` to a fresh connection, half-closes the write side, and
/// collects complete response lines until the server closes its side. A
/// trailing partial line (server died mid-response) is discarded — its
/// request counts as unanswered and gets retried.
ConnectionOutcome DriveConnection(const ClientOptions& options,
                                  const std::vector<std::string>& lines) {
  ConnectionOutcome out;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    out.status = Status::IoError(std::string("socket: ") + std::strerror(errno));
    return out;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    out.status = Status::InvalidArgument("bad host: " + options.host);
    return out;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    out.status = Status::Unavailable("connect " + options.host + ":" +
                                     std::to_string(options.port) + ": " +
                                     std::strerror(errno));
    return out;
  }
  out.connected = true;

  // Reader in a separate thread so a full server send buffer can never
  // deadlock against our (blocking) writes.
  std::string received;
  std::thread reader([fd, &received] {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      received.append(chunk, static_cast<size_t>(n));
    }
  });

  // One send for the whole batch: pipelined control sequences (e.g.
  // shutdown followed by health) reach the server in one read, so a
  // draining server still answers every line it received.
  std::string wire;
  for (const std::string& line : lines) {
    wire += line;
    wire.push_back('\n');
  }
  size_t off = 0;
  while (off < wire.size()) {
    ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      out.status = Status::Unavailable("connection broke mid-request");
      break;
    }
    off += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  reader.join();
  ::close(fd);

  size_t start = 0;
  size_t newline;
  while ((newline = received.find('\n', start)) != std::string::npos) {
    if (newline > start) {
      out.responses.push_back(received.substr(start, newline - start));
    }
    start = newline + 1;
  }
  return out;
}

/// A shed response is the retriable error: the server refused admission
/// under load, and idempotent (deterministic) requests are safe to replay.
/// Deliberate rejections — DeadlineExceeded from shed_after, InvalidArgument,
/// parse errors — are final answers.
bool IsRetriableResponse(const std::string& line) {
  return line.find("\"ok\":false") != std::string::npos &&
         line.find("\"code\":\"Unavailable\"") != std::string::npos;
}

struct PendingRequest {
  std::string line;
  /// Send attempts so far (a request may be sent 1 + max_retries times).
  size_t sends = 0;
  bool done = false;
  /// Last response observed (a shed error, kept if retries run out).
  std::string last_response;
};

struct ShardCounters {
  size_t retries = 0;
  size_t exhausted = 0;
};

/// Runs one connection's shard to completion: send the open requests,
/// positionally match responses, retry shed/reset requests with capped
/// exponential backoff and deterministic jitter until they resolve or
/// exhaust their budget.
ShardCounters DriveShard(const ClientOptions& options, size_t shard,
                         std::vector<PendingRequest>& pending) {
  ShardCounters counters;
  for (size_t round = 0;; ++round) {
    std::vector<size_t> open;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!pending[i].done) open.push_back(i);
    }
    if (open.empty()) return counters;
    if (round > 0) {
      // Capped exponential backoff. The jitter factor in [0.5, 1.0) is a
      // pure function of (seed, shard, round): replays are reproducible,
      // while distinct shards still decorrelate their retry bursts.
      double delay = options.retry_backoff_seconds;
      for (size_t r = 1; r < round; ++r) delay *= 2.0;
      if (delay > options.retry_backoff_cap_seconds) {
        delay = options.retry_backoff_cap_seconds;
      }
      const uint64_t u = Mix64(options.retry_seed ^
                               (shard * 0x9e3779b97f4a7c15ULL) ^ round);
      const double jitter =
          0.5 + 0.5 * (static_cast<double>(u >> 11) * 0x1.0p-53);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(delay * jitter));
    }

    std::vector<std::string> lines;
    lines.reserve(open.size());
    for (size_t i : open) {
      lines.push_back(pending[i].line);
      ++pending[i].sends;
    }
    ConnectionOutcome out = DriveConnection(options, lines);

    for (size_t k = 0; k < open.size(); ++k) {
      PendingRequest& request = pending[open[k]];
      const bool answered = k < out.responses.size();
      if (answered && !IsRetriableResponse(out.responses[k])) {
        request.done = true;
        request.last_response = out.responses[k];
        continue;
      }
      if (answered) request.last_response = out.responses[k];
      // Shed, reset before a response, or never connected: retriable.
      if (request.sends > options.max_retries) {
        request.done = true;
        ++counters.exhausted;
        if (request.last_response.empty()) {
          Status reason =
              out.connected
                  ? Status::Unavailable("retries exhausted: connection reset "
                                        "before a response arrived")
                  : Status::Unavailable("retries exhausted: " +
                                        out.status.message());
          request.last_response =
              ErrorResponseLine(PeekLineId(request.line), reason);
        }
      } else {
        ++counters.retries;
      }
    }
  }
}

}  // namespace

Result<ClientBatchResult> RunClientBatch(
    const ClientOptions& options, const std::vector<std::string>& lines) {
  sockaddr_in probe{};
  if (::inet_pton(AF_INET, options.host.c_str(), &probe.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + options.host);
  }
  const size_t connections =
      std::max<size_t>(1, std::min(options.connections,
                                   std::max<size_t>(1, lines.size())));
  std::vector<std::vector<PendingRequest>> shards(connections);
  for (size_t i = 0; i < lines.size(); ++i) {
    shards[i % connections].push_back(PendingRequest{lines[i]});
  }

  std::vector<ShardCounters> counters(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(
        [&, c] { counters[c] = DriveShard(options, c, shards[c]); });
  }
  for (std::thread& t : threads) t.join();

  ClientBatchResult result;
  result.responses.reserve(lines.size());
  for (size_t c = 0; c < connections; ++c) {
    result.retries += counters[c].retries;
    result.exhausted += counters[c].exhausted;
    for (PendingRequest& request : shards[c]) {
      result.responses.push_back(std::move(request.last_response));
    }
  }
  std::stable_sort(result.responses.begin(), result.responses.end(),
                   [](const std::string& a, const std::string& b) {
                     const uint64_t ia = PeekLineId(a);
                     const uint64_t ib = PeekLineId(b);
                     if (ia != ib) return ia < ib;
                     return a < b;
                   });
  return result;
}

}  // namespace serve
}  // namespace kelpie
