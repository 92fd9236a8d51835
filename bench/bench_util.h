#ifndef KELPIE_BENCH_BENCH_UTIL_H_
#define KELPIE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/criage.h"
#include "baselines/data_poisoning.h"
#include "baselines/explainer.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "datagen/datasets.h"
#include "eval/evaluator.h"
#include "models/factory.h"
#include "xp/pipeline.h"

namespace kelpie {
namespace bench {

/// Common options of the experiment benches. Every bench runs a reduced
/// grid by default so the whole suite finishes in minutes; pass --full for
/// the paper-scale grid (all five datasets, more predictions, |C| = 10).
struct BenchOptions {
  bool full = false;
  uint64_t seed = 7;
  /// Worker threads for parallel explanation extraction (--threads=N).
  /// Benches that compare against sequential extraction run both a
  /// threads=1 and a threads=N series.
  size_t threads = 4;
  /// When non-empty (--json=PATH), the bench also writes a machine-readable
  /// JSON summary to this path. The CI perf-smoke job uploads these files
  /// and diffs them against bench/baseline.json.
  std::string json_path;

  double dataset_scale() const { return full ? 1.0 : 0.55; }
  size_t num_predictions() const { return full ? 40 : 10; }
  size_t conversion_size() const { return full ? 10 : 4; }

  std::vector<BenchmarkDataset> datasets() const {
    if (full) return AllBenchmarkDatasets();
    return {BenchmarkDataset::kFb15k237, BenchmarkDataset::kWn18rr};
  }
  std::vector<ModelKind> models() const {
    return {ModelKind::kTransE, ModelKind::kComplEx, ModelKind::kConvE};
  }
};

inline BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      options.full = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      options.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.threads = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      options.json_path = argv[i] + 7;
    }
  }
  return options;
}

/// Trains a model with dataset-appropriate defaults, reporting the time.
inline std::unique_ptr<LinkPredictionModel> TrainModel(
    ModelKind kind, const Dataset& dataset, uint64_t seed) {
  Stopwatch timer;
  std::unique_ptr<LinkPredictionModel> model = CreateAndTrain(kind, dataset, seed);
  std::fprintf(stderr, "[bench] trained %s on %s in %.1fs\n",
               std::string(ModelKindName(kind)).c_str(),
               dataset.name().c_str(), timer.ElapsedSeconds());
  return model;
}

/// Kelpie options tuned for bench throughput; --full restores paper-like
/// exploration budgets.
inline KelpieOptions MakeKelpieOptions(const BenchOptions& bench) {
  KelpieOptions options;
  options.engine.conversion_set_size = bench.conversion_size();
  options.builder.max_visits_per_size = bench.full ? 100 : 25;
  return options;
}

/// Creates the four frameworks the paper compares (Kelpie, K1, DP, Criage).
/// The Criage entry is omitted for TransE, as in the paper ("the code
/// provided by the Criage authors only supports multiplicative models").
inline std::vector<std::unique_ptr<Explainer>> MakeFrameworks(
    const LinkPredictionModel& model, const Dataset& dataset,
    const BenchOptions& bench) {
  std::vector<std::unique_ptr<Explainer>> out;
  out.push_back(std::make_unique<KelpieExplainer>(
      model, dataset, MakeKelpieOptions(bench), /*k1_only=*/true));
  out.push_back(std::make_unique<KelpieExplainer>(
      model, dataset, MakeKelpieOptions(bench), /*k1_only=*/false));
  out.push_back(std::make_unique<DataPoisoningExplainer>(model, dataset));
  if (std::string(model.Name()) != "TransE") {
    out.push_back(std::make_unique<CriageExplainer>(model, dataset));
  }
  return out;
}

/// The result of an unjournaled end-to-end run. Without a journal, cancel
/// token or deadline a run cannot fail, so a failure aborts the bench.
inline EndToEndResult CheckedRun(Result<EndToEndResult> run) {
  KELPIE_CHECK(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

/// Total Relevance Engine post-trainings recorded in the process metrics
/// registry (all mimic kinds). Benches report deltas of this across a
/// measured region instead of reaching into engine-private counters; at
/// num_threads = 1 the registry count is exact.
inline uint64_t TotalPostTrainings() {
  return metrics::Registry::Global().CounterFamilyTotal(
      "kelpie_engine_post_trainings_total");
}

/// Prints a row of a fixed-width text table.
inline void PrintRow(const std::vector<std::string>& cells, int width = 12) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline void PrintRule(size_t cells, int width = 12) {
  std::printf("%s\n", std::string(cells * static_cast<size_t>(width), '-')
                          .c_str());
}

}  // namespace bench
}  // namespace kelpie

#endif  // KELPIE_BENCH_BENCH_UTIL_H_
