// Serving-layer benchmark (DESIGN.md §12): score round-trip throughput and
// explain dispatch latency through serve::Server, at pool sizes 1 and 2.
// Requests flow the full production path — bounded queue, batch coalescing,
// round-robin pool lease — so the numbers capture queueing and dispatch
// overhead on top of raw model cost.
//
// With --json=PATH a machine-readable summary (BENCH_serve.json in CI) is
// written for the perf-smoke delta report; timings vary run to run, so the
// JSON is compared report-only against the "serve" section of
// bench/baseline.json.
#include "bench/bench_util.h"

#include <future>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/stopwatch.h"
#include "core/relevance_cache.h"
#include "models/model_store.h"
#include "serve/server.h"

namespace {

using namespace kelpie;
using namespace kelpie::bench;

struct ServeTiming {
  std::string name;
  size_t pool = 0;
  size_t requests = 0;
  double ns_per_request = 0.0;

  double requests_per_second() const {
    return ns_per_request > 0.0 ? 1e9 / ns_per_request : 0.0;
  }
};

/// --warm-cache summary: repeated explains with a shared relevance cache,
/// cold (first pass populates it) vs warm (every post-training is a hit).
struct WarmCacheSummary {
  double cold_ns_per_request = 0.0;
  double warm_ns_per_request = 0.0;

  double speedup() const {
    return warm_ns_per_request > 0.0
               ? cold_ns_per_request / warm_ns_per_request
               : 0.0;
  }
};

std::unique_ptr<serve::Server> MakeServer(
    const std::string& model_path, const Dataset& dataset,
    const BenchOptions& bench, size_t pool_size,
    std::shared_ptr<RelevanceCache> cache = nullptr) {
  serve::ServerOptions options;
  options.pool_size = pool_size;
  // The bench front-loads the whole workload, so admission must not shed:
  // an unbounded queue measures throughput rather than load-shedding policy.
  options.max_queue_depth = 0;
  options.kelpie = MakeKelpieOptions(bench);
  options.kelpie.engine.relevance_cache = std::move(cache);
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(model_path, dataset, options);
  if (!server.ok()) {
    std::fprintf(stderr, "[bench] server: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(server).value();
}

/// Submits `count` score requests cycling the test split, waits for every
/// future; the whole window (submit + queue + dispatch + score) divided by
/// `count` is the round-trip cost.
ServeTiming TimeScoreRoundTrip(serve::Server& server, const Dataset& dataset,
                               size_t pool, size_t count) {
  const std::vector<Triple>& test = dataset.test();
  std::vector<std::future<serve::ScoreResult>> futures;
  futures.reserve(count);
  Stopwatch timer;
  for (size_t i = 0; i < count; ++i) {
    futures.push_back(server.Submit({test[i % test.size()], Deadline()}));
  }
  for (std::future<serve::ScoreResult>& f : futures) {
    serve::ScoreResult result = f.get();
    if (!result.status.ok()) {
      std::fprintf(stderr, "[bench] score: %s\n",
                   result.status.ToString().c_str());
      std::exit(1);
    }
  }
  return {"score_roundtrip", pool, count,
          timer.ElapsedSeconds() * 1e9 / static_cast<double>(count)};
}

/// Dispatches `count` necessary explains concurrently; per-request cost is
/// dominated by post-training but includes the full admission path.
ServeTiming TimeExplainDispatch(serve::Server& server, const Dataset& dataset,
                                size_t pool, size_t count) {
  const std::vector<Triple>& test = dataset.test();
  std::vector<std::future<serve::ExplainResult>> futures;
  futures.reserve(count);
  Stopwatch timer;
  for (size_t i = 0; i < count; ++i) {
    serve::ExplainRequest request;
    request.prediction = test[i % test.size()];
    futures.push_back(server.SubmitExplain(std::move(request)));
  }
  for (std::future<serve::ExplainResult>& f : futures) {
    serve::ExplainResult result = f.get();
    if (!result.status.ok()) {
      std::fprintf(stderr, "[bench] explain: %s\n",
                   result.status.ToString().c_str());
      std::exit(1);
    }
  }
  return {"explain_necessary", pool, count,
          timer.ElapsedSeconds() * 1e9 / static_cast<double>(count)};
}

/// Submits `unique * repeats` necessary explains cycling `unique` distinct
/// predictions; with a shared relevance cache every repeat is served from
/// cached post-trainings, so this window measures the warm-path cost.
ServeTiming TimeExplainRepeated(serve::Server& server, const Dataset& dataset,
                                size_t pool, size_t unique, size_t repeats,
                                const char* name) {
  const std::vector<Triple>& test = dataset.test();
  const size_t count = unique * repeats;
  std::vector<std::future<serve::ExplainResult>> futures;
  futures.reserve(count);
  Stopwatch timer;
  for (size_t i = 0; i < count; ++i) {
    serve::ExplainRequest request;
    request.prediction = test[i % unique % test.size()];
    futures.push_back(server.SubmitExplain(std::move(request)));
  }
  for (std::future<serve::ExplainResult>& f : futures) {
    serve::ExplainResult result = f.get();
    if (!result.status.ok()) {
      std::fprintf(stderr, "[bench] explain (repeated): %s\n",
                   result.status.ToString().c_str());
      std::exit(1);
    }
  }
  return {name, pool, count,
          timer.ElapsedSeconds() * 1e9 / static_cast<double>(count)};
}

void WriteJson(const std::string& path,
               const std::vector<ServeTiming>& timings,
               const WarmCacheSummary* warm) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"serve\": [\n");
  for (size_t i = 0; i < timings.size(); ++i) {
    const ServeTiming& t = timings[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"pool\": %zu, \"requests\": %zu, "
                 "\"ns_per_request\": %.0f, \"requests_per_second\": %.0f}%s\n",
                 t.name.c_str(), t.pool, t.requests, t.ns_per_request,
                 t.requests_per_second(), i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "  ]%s\n", warm != nullptr ? "," : "");
  if (warm != nullptr) {
    std::fprintf(f,
                 "  \"warm_cache\": {\"cold_ns_per_request\": %.0f, "
                 "\"warm_ns_per_request\": %.0f, \"speedup\": %.2f}\n",
                 warm->cold_ns_per_request, warm->warm_ns_per_request,
                 warm->speedup());
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseArgs(argc, argv);
  bool warm_cache = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warm-cache") == 0) warm_cache = true;
  }

  Dataset dataset = MakeBenchmark(BenchmarkDataset::kFb15k237,
                                  options.dataset_scale(), options.seed);
  std::unique_ptr<LinkPredictionModel> model =
      TrainModel(ModelKind::kTransE, dataset, options.seed);
  const std::string model_path =
      "/tmp/kelpie_bench_serve_" + std::to_string(getpid()) + ".model";
  Status saved = SaveModel(*model, ModelKind::kTransE, model_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "[bench] save: %s\n", saved.ToString().c_str());
    return 1;
  }

  const size_t score_requests = options.full ? 8192 : 2048;
  const size_t explain_requests = options.full ? 8 : 4;

  std::printf("Serve round-trip benchmark (TransE, %s scale %.2f)\n\n",
              dataset.name().c_str(), options.dataset_scale());
  PrintRow({"Bench", "Pool", "Requests", "us/req", "req/s"}, 14);
  PrintRule(5, 14);

  std::vector<ServeTiming> timings;
  for (size_t pool : {size_t{1}, size_t{2}}) {
    std::unique_ptr<serve::Server> server =
        MakeServer(model_path, dataset, options, pool);
    timings.push_back(
        TimeScoreRoundTrip(*server, dataset, pool, score_requests));
    timings.push_back(
        TimeExplainDispatch(*server, dataset, pool, explain_requests));
    server->Stop();
  }
  WarmCacheSummary warm;
  if (warm_cache) {
    // Repeated-query section: one pool-2 server whose instances share an
    // in-memory relevance cache. The first pass over the distinct
    // predictions pays full post-training cost (and fills the cache); the
    // repeat passes are served from it — the speedup is the cacheable
    // fraction of an explain.
    const size_t unique = explain_requests;
    const size_t repeats = 4;
    auto cache = RelevanceCache::Open({});
    std::unique_ptr<serve::Server> server =
        MakeServer(model_path, dataset, options, 2, cache);
    ServeTiming cold = TimeExplainRepeated(*server, dataset, 2, unique, 1,
                                           "explain_repeated_cold");
    ServeTiming hot = TimeExplainRepeated(*server, dataset, 2, unique,
                                          repeats, "explain_repeated_warm");
    server->Stop();
    warm.cold_ns_per_request = cold.ns_per_request;
    warm.warm_ns_per_request = hot.ns_per_request;
    timings.push_back(cold);
    timings.push_back(hot);
  }

  for (const ServeTiming& t : timings) {
    PrintRow({t.name, std::to_string(t.pool), std::to_string(t.requests),
              FormatDouble(t.ns_per_request / 1e3, 1),
              FormatDouble(t.requests_per_second(), 0)},
             14);
  }
  if (warm_cache) {
    std::printf("\nwarm relevance cache: %.1fx over cold "
                "(%.0f us/req -> %.0f us/req)\n",
                warm.speedup(), warm.cold_ns_per_request / 1e3,
                warm.warm_ns_per_request / 1e3);
  }

  if (!options.json_path.empty()) {
    WriteJson(options.json_path, timings, warm_cache ? &warm : nullptr);
  }
  std::remove(model_path.c_str());
  return 0;
}
