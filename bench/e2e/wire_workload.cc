// wire-mixed: open-loop score and explain traffic over the line protocol
// into serve::TcpServer on 127.0.0.1. Connection A sends scores evenly
// spaced at 2,000/s; connection B sends explains as a seeded Poisson stream
// at 4/s. Each request's latency is timed from when it was due.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "e2e.h"
#include "serve/line_protocol.h"
#include "serve/server.h"
#include "serve/tcp_server.h"

namespace kelpie::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kScoreRate = 2000.0;
constexpr double kExplainRate = 4.0;
constexpr double kSloSeconds = 1e-3;
constexpr uint64_t kExplainIdBase = 1000000000;

/// One connection's open-loop schedule and what came back.
struct Stream {
  std::vector<std::string> lines;
  std::vector<uint64_t> ids;
  std::vector<double> due_s;  // offsets from the common start instant
  std::vector<double> late_s;
  std::vector<double> latency_s;
  std::vector<std::string> responses;
  bool send_failed = false;
};

int ConnectOrDie(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "bench_e2e: connect: %s\n", std::strerror(errno));
    std::exit(1);
  }
  return fd;
}

/// Sends every line at its due time (late lines go out at once), then
/// half-closes the connection.
void SendStream(int fd, Clock::time_point start, Stream& stream) {
  stream.late_s.assign(stream.lines.size(), 0.0);
  for (size_t i = 0; i < stream.lines.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(stream.due_s[i]));
    std::this_thread::sleep_until(due);
    stream.late_s[i] =
        std::chrono::duration<double>(Clock::now() - due).count();
    const std::string line = stream.lines[i] + "\n";
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        stream.send_failed = true;
        ::shutdown(fd, SHUT_WR);
        return;
      }
      off += static_cast<size_t>(n);
    }
  }
  ::shutdown(fd, SHUT_WR);
}

/// Reads responses (FIFO per connection) until EOF, stamping each with its
/// latency from its request's due time.
void ReceiveStream(int fd, Clock::time_point start, Stream& stream) {
  std::string buffer;
  char chunk[8192];
  while (stream.responses.size() < stream.lines.size()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    const Clock::time_point now = Clock::now();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const size_t k = stream.responses.size();
      if (k < stream.lines.size()) {
        stream.latency_s.push_back(
            std::chrono::duration<double>(now - start).count() -
            stream.due_s[k]);
        stream.responses.push_back(buffer.substr(0, newline));
      }
      buffer.erase(0, newline + 1);
    }
  }
}

std::string RequestLine(uint64_t id, const char* op, const Triple& t,
                        const Dataset& dataset, const ExplainQuery* query) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
                     "\",\"head\":\"" +
                     metrics::JsonEscape(dataset.entities().NameOf(t.head)) +
                     "\",\"relation\":\"" +
                     metrics::JsonEscape(dataset.relations().NameOf(t.relation)) +
                     "\",\"tail\":\"" +
                     metrics::JsonEscape(dataset.entities().NameOf(t.tail)) +
                     "\"";
  if (query != nullptr) {
    if (query->kind == ExplanationKind::kSufficient) line += ",\"sufficient\":true";
    if (query->target == PredictionTarget::kHead) line += ",\"head_query\":true";
  }
  return line + "}";
}

}  // namespace

int RunWireMixed(const Options& options, Report& report, TraceFile& trace) {
  const std::string model_path = options.workdir + "/model.bin";
  std::vector<SetupTimes> times;
  World world;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::TcpServer> tcp;
  std::thread accept_loop;
  auto stop_servers = [&] {
    if (tcp != nullptr) {
      tcp->Shutdown();
      accept_loop.join();
      tcp.reset();
    }
    if (server != nullptr) server->Stop();
    server.reset();
  };
  for (size_t r = 0; r < options.setup_repeats; ++r) {
    stop_servers();
    world = World();
    SetupTimes t;
    world = BuildWorld(ModelKind::kTransE, 21.0, model_path, &t);
    Stopwatch load;
    Result<std::unique_ptr<serve::Server>> created =
        serve::Server::Create(model_path, *world.dataset, {});
    if (!created.ok()) {
      std::fprintf(stderr, "bench_e2e: server: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    server = std::move(created).value();
    tcp = std::make_unique<serve::TcpServer>(*server, serve::TcpServerOptions{});
    Status started = tcp->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench_e2e: listen: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    accept_loop = std::thread([&] { tcp->Run(); });
    t.load_s = load.ElapsedSeconds();
    times.push_back(t);
  }
  ReportSetup(times, report);
  const Dataset& dataset = *world.dataset;

  // Scores: seeded training facts, evenly spaced. Explains: a Poisson
  // stream that begins with an arrival, so even a short run sends one.
  Rng rng(options.seed ^ 0x3C0E5C0EULL);
  Stream scores, explains;
  std::vector<Triple> score_triples;
  const size_t n_scores =
      static_cast<size_t>(std::floor(kScoreRate * options.seconds));
  for (size_t i = 0; i < n_scores; ++i) {
    const Triple& t = dataset.train()[rng.UniformUint64(dataset.train().size())];
    score_triples.push_back(t);
    scores.ids.push_back(i + 1);
    scores.due_s.push_back(static_cast<double>(i) / kScoreRate);
    scores.lines.push_back(RequestLine(i + 1, "score", t, dataset, nullptr));
  }
  for (double due = 0.0; due < options.seconds;
       due += -std::log(1.0 - rng.UniformDouble()) / kExplainRate) {
    explains.due_s.push_back(due);
  }
  const std::vector<ExplainQuery> queries = MakeQueries(
      *world.model, dataset, options.seed, explains.due_s.size());
  explains.due_s.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    explains.ids.push_back(kExplainIdBase + i + 1);
    explains.lines.push_back(RequestLine(explains.ids[i], "explain",
                                         queries[i].prediction, dataset,
                                         &queries[i]));
  }

  const int fd_scores = ConnectOrDie(tcp->port());
  const int fd_explains = ConnectOrDie(tcp->port());
  const ServeSnapshot serve_before = ServeSnapshot::Take();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::thread load[] = {
      std::thread([&] { SendStream(fd_scores, start, scores); }),
      std::thread([&] { ReceiveStream(fd_scores, start, scores); }),
      std::thread([&] { SendStream(fd_explains, start, explains); }),
      std::thread([&] { ReceiveStream(fd_explains, start, explains); }),
  };
  for (std::thread& t : load) t.join();
  const double window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  ::close(fd_scores);
  ::close(fd_explains);
  const ServeSnapshot serve_delta = ServeSnapshot::Take().Minus(serve_before);
  report.EndToEnd("peak_rss_mb", PeakRssMb());
  const size_t dispatchers = server->options().pool_size;
  stop_servers();

  // Scores: byte-compare every line with a locally computed response.
  std::unique_ptr<LinkPredictionModel> model = LoadOrDie(model_path);
  std::vector<double> score_ms;
  size_t within_slo = 0;
  double latency_sum_s = 0.0;
  for (size_t i = 0; i < n_scores; ++i) {
    report.Attempt();
    if (i >= scores.responses.size()) {
      report.Fail("score " + std::to_string(scores.ids[i]) + " unanswered");
      continue;
    }
    latency_sum_s += scores.latency_s[i];
    score_ms.push_back(scores.latency_s[i] * 1e3);
    const std::string want =
        serve::ScoreResponseLine(scores.ids[i], model->Score(score_triples[i]));
    if (scores.responses[i] != want) {
      report.Fail("score response differs: got " + scores.responses[i] +
                  " want " + want);
      continue;
    }
    if (scores.latency_s[i] <= kSloSeconds) ++within_slo;
  }
  // Explains: the response must be a successful explanation; 8 of them are
  // re-explained one-shot and byte-compared.
  std::vector<Served> served;
  std::vector<double> explain_ms;
  for (size_t i = 0; i < queries.size(); ++i) {
    report.Attempt();
    if (i >= explains.responses.size()) {
      report.Fail("explain " + std::to_string(explains.ids[i]) +
                  " unanswered");
      continue;
    }
    latency_sum_s += explains.latency_s[i];
    explain_ms.push_back(explains.latency_s[i] * 1e3);
    if (explains.responses[i].find("\"ok\":true") == std::string::npos) {
      report.Fail("explain failed: " + explains.responses[i]);
      continue;
    }
    Served s;
    s.query = i;
    s.id = explains.ids[i];
    s.kind = queries[i].kind;
    s.latency_s = explains.latency_s[i];
    s.line = explains.responses[i];
    served.push_back(std::move(s));
  }
  if (scores.send_failed || explains.send_failed) {
    report.Fail("a request stream could not be sent");
  }

  std::vector<double> late;
  size_t late_sends = 0;
  for (const Stream* s : {&scores, &explains}) {
    for (double l : s->late_s) {
      late.push_back(l);
      if (l > kSloSeconds) ++late_sends;
    }
  }
  const double n = static_cast<double>(n_scores);
  report.EndToEnd("main_per_s", static_cast<double>(within_slo) / window_s);
  report.EndToEnd("main_p50_ms", Percentile(score_ms, 0.5));
  report.Detail("window_s", window_s, "s");
  report.Detail("score_p50_us", Percentile(score_ms, 0.5) * 1e3, "us");
  report.Detail("score_p99_us", Percentile(score_ms, 0.99) * 1e3, "us");
  report.Detail("score_samples", n, "count");
  report.Detail("score_slo_miss_frac",
                Ratio(n - static_cast<double>(within_slo), n), "ratio");
  report.Detail("explain_wire_p50_ms", Percentile(explain_ms, 0.5), "ms");
  report.Detail("explain_samples", static_cast<double>(queries.size()),
                "count");
  report.Detail("loadgen.late_max_ms", Percentile(late, 1.0) * 1e3, "ms");
  report.Layer("loadgen.late_share",
               Ratio(static_cast<double>(late_sends),
                     static_cast<double>(late.size())));
  ReportServeLayer(serve_delta, window_s, latency_sum_s, dispatchers, report);

  CheckOneShot(model_path, dataset, queries, served, options.seed, report);

  if (!options.trace_path.empty() && !served.empty()) {
    std::vector<ExplainQuery> requests;
    std::vector<uint64_t> ids;
    std::vector<std::string> expected;
    for (const Served& s : served) {
      requests.push_back(queries[s.query]);
      ids.push_back(s.id);
      expected.push_back(s.line);
    }
    TraceExplains(world, KelpieOptions{}, requests, ids, expected, trace,
                  report);
  }
  return 0;
}

}  // namespace kelpie::e2e
