// explain-cold-paper and explain-repeat-small: closed-loop explain traffic
// from 2 client threads into an in-process serve::Server.
#include <atomic>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/stopwatch.h"
#include "core/relevance_cache.h"
#include "e2e.h"
#include "serve/line_protocol.h"
#include "serve/server.h"

namespace kelpie::e2e {

namespace {

constexpr size_t kClients = 2;
/// (prediction, kind) pairs explain-repeat-small draws from.
constexpr size_t kWorkingSet = 48;
/// Ids of the measured window start here (the warm-up pass takes 1..).
constexpr uint64_t kWindowIdBase = 1000000;

struct ExplainWorkload {
  double scale;
  ModelKind kind;
  /// Draw requests Zipf(1.1) over kWorkingSet (prediction, kind) pairs
  /// through a shared relevance cache warmed before the window; otherwise
  /// every request is a new prediction and there is no cache.
  bool repeat;
};

std::unique_ptr<serve::Server> CreateServerOrDie(
    const std::string& model_path, const Dataset& dataset,
    const serve::ServerOptions& options) {
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(model_path, dataset, options);
  if (!server.ok()) {
    std::fprintf(stderr, "bench_e2e: server: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(server).value();
}

struct LoopResult {
  size_t served = 0;
  double window_s = 0.0;
};

/// Closed loop: kClients threads each send request i = next index of
/// `order`, wait for the answer, and repeat until `seconds` have passed or
/// `order` is exhausted. Request i gets id `id_base + i + 1`. Every index a
/// client takes is answered, so the served requests are exactly the prefix
/// [0, served) of `slots`.
LoopResult RunClosedLoop(serve::Server& server, const Dataset& dataset,
                         const std::vector<ExplainQuery>& queries,
                         const std::vector<size_t>& order, uint64_t id_base,
                         double seconds, std::vector<Served>& slots,
                         std::vector<char>& ok) {
  slots.assign(order.size(), Served{});
  ok.assign(order.size(), 0);
  std::atomic<size_t> next{0};
  Stopwatch window;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (window.ElapsedSeconds() < seconds) {
        const size_t i = next.fetch_add(1);
        if (i >= order.size()) break;
        const ExplainQuery& q = queries[order[i]];
        serve::ExplainRequest request;
        request.prediction = q.prediction;
        request.target = q.target;
        request.kind = q.kind;
        Stopwatch latency;
        serve::ExplainResult result =
            server.SubmitExplain(std::move(request)).get();
        Served& s = slots[i];
        s.latency_s = latency.ElapsedSeconds();
        s.query = order[i];
        s.id = id_base + i + 1;
        s.kind = q.kind;
        if (result.status.ok()) {
          ok[i] = 1;
          s.line = serve::ExplainResponseLine(s.id, result.explanation,
                                              result.conversion_set, dataset);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  LoopResult result;
  result.window_s = window.ElapsedSeconds();
  result.served = std::min(next.load(), order.size());
  slots.resize(result.served);
  return result;
}

int RunExplain(const Options& options, const ExplainWorkload& workload,
               Report& report, TraceFile& trace) {
  const std::string model_path = options.workdir + "/model.bin";
  std::vector<SetupTimes> times;
  World world;
  std::shared_ptr<RelevanceCache> cache;
  std::unique_ptr<serve::Server> server;
  for (size_t r = 0; r < options.setup_repeats; ++r) {
    server.reset();
    cache.reset();
    world = World();
    SetupTimes t;
    world = BuildWorld(workload.kind, workload.scale, model_path, &t);
    Stopwatch load;
    serve::ServerOptions server_options;  // pool 2, max_batch 16
    if (workload.repeat) {
      RelevanceCacheOptions cache_options;  // in memory, 64 MiB
      cache_options.fingerprint = ComputeModelFingerprint(
          *world.model, server_options.kelpie.engine.seed);
      cache = RelevanceCache::Open(cache_options);
      server_options.kelpie.engine.relevance_cache = cache;
    }
    server = CreateServerOrDie(model_path, *world.dataset, server_options);
    t.load_s = load.ElapsedSeconds();
    times.push_back(t);
  }
  ReportSetup(times, report);
  const Dataset& dataset = *world.dataset;

  // The request sequence: indices into `queries`, long enough that the
  // window, not the sequence, ends the run.
  std::vector<ExplainQuery> queries;
  std::vector<size_t> order;
  std::vector<Served> slots;
  std::vector<char> ok;
  if (workload.repeat) {
    // The working set is fixed, like the graph, and the seed draws the
    // traffic over it: with a seeded working set, which pairs happened to be
    // the most popular moved throughput 3x between seeds. Warm the cache
    // with one untimed pass over the set, then draw requests Zipf(1.1):
    // query r (whose kind is fixed by r) is the r-th most popular.
    queries = MakeQueries(*world.model, dataset, kWorldSeed, kWorkingSet);
    for (size_t i = 0; i < queries.size(); ++i) order.push_back(i);
    Stopwatch warmup;
    RunClosedLoop(*server, dataset, queries, order, 0,
                  std::numeric_limits<double>::infinity(), slots, ok);
    report.Detail("warmup_s", warmup.ElapsedSeconds(), "s");
    for (size_t i = 0; i < slots.size(); ++i) {
      report.Attempt();
      if (!ok[i]) report.Fail("warm-up explain " + std::to_string(slots[i].id));
    }
    Rng rng(options.seed ^ 0x5EC0E4CEULL);
    order.clear();
    const size_t length = static_cast<size_t>(8000.0 * options.seconds) + 64;
    for (size_t i = 0; i < length; ++i) {
      order.push_back(SampleZipf(rng, queries.size(), 1.1));
    }
  } else {
    queries = MakeQueries(*world.model, dataset, options.seed,
                          static_cast<size_t>(200.0 * options.seconds) + 64);
    for (size_t i = 0; i < queries.size(); ++i) order.push_back(i);
  }

  const RelevanceCacheStats cache_before =
      cache != nullptr ? cache->stats() : RelevanceCacheStats{};
  const ServeSnapshot serve_before = ServeSnapshot::Take();
  const LoopResult loop = RunClosedLoop(*server, dataset, queries, order,
                                        kWindowIdBase, options.seconds, slots,
                                        ok);
  const ServeSnapshot serve_delta = ServeSnapshot::Take().Minus(serve_before);
  report.EndToEnd("peak_rss_mb", PeakRssMb());
  server->Stop();

  const size_t n = loop.served;
  std::vector<double> necessary_ms, sufficient_ms;
  double latency_sum_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    report.Attempt();
    if (!ok[i]) report.Fail("explain " + std::to_string(slots[i].id));
    latency_sum_s += slots[i].latency_s;
    (slots[i].kind == ExplanationKind::kSufficient ? sufficient_ms
                                                   : necessary_ms)
        .push_back(slots[i].latency_s * 1e3);
  }
  const double explain_per_s = static_cast<double>(n) / loop.window_s;
  report.EndToEnd("main_per_s", explain_per_s);
  report.EndToEnd("main_p50_ms", Percentile(necessary_ms, 0.5));
  report.Detail("window_s", loop.window_s, "s");
  report.Detail("explain_nec_p50_ms", Percentile(necessary_ms, 0.5), "ms");
  report.Detail("explain_nec_p95_ms", Percentile(necessary_ms, 0.95), "ms");
  report.Detail("explain_nec_samples", static_cast<double>(necessary_ms.size()),
                "count");
  report.Detail("explain_suf_p50_ms", Percentile(sufficient_ms, 0.5), "ms");
  report.Detail("explain_suf_p90_ms", Percentile(sufficient_ms, 0.9), "ms");
  report.Detail("explain_suf_samples",
                static_cast<double>(sufficient_ms.size()), "count");
  ReportServeLayer(serve_delta, loop.window_s, latency_sum_s,
                   server->options().pool_size, report);
  if (cache != nullptr) {
    const RelevanceCacheStats after = cache->stats();
    const double hits = static_cast<double>(after.hits - cache_before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - cache_before.misses) +
        static_cast<double>(after.waits - cache_before.waits);
    report.Layer("core.relevance_cache_hit_frac", Ratio(hits, lookups));
    report.Layer("core.relevance_cache_waits",
                 static_cast<double>(after.waits - cache_before.waits));
  }

  CheckOneShot(model_path, dataset, queries, slots, options.seed, report);

  if (!options.trace_path.empty()) {
    // Sparse against dense training is a paper-scale question, and two
    // trainings are the dearest part of a traced run: one workload asks it.
    if (!workload.repeat) ReportSparseRatio(world, report);
    // Replay the first eighth of the window's sequence.
    const size_t k = std::max<size_t>(1, (n + 7) / 8);
    std::vector<ExplainQuery> requests;
    std::vector<uint64_t> ids;
    std::vector<std::string> expected;
    for (size_t i = 0; i < k && i < n; ++i) {
      requests.push_back(queries[slots[i].query]);
      ids.push_back(slots[i].id);
      expected.push_back(slots[i].line);
    }
    TraceExplains(world, server->options().kelpie, requests, ids, expected,
                  trace, report);
  }
  return 0;
}

}  // namespace

int RunExplainColdPaper(const Options& options, Report& report,
                        TraceFile& trace) {
  return RunExplain(options, {21.0, ModelKind::kTransE, false}, report, trace);
}

int RunExplainRepeatSmall(const Options& options, Report& report,
                          TraceFile& trace) {
  return RunExplain(options, {0.55, ModelKind::kComplEx, true}, report, trace);
}

}  // namespace kelpie::e2e
