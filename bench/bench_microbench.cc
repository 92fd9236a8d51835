// Google-benchmark microbenchmarks of the primitives the framework's cost
// model is built on: all-candidate scoring, BFS promisingness, one
// post-training, and one full relevance computation, per model family.
#include <benchmark/benchmark.h>

#include "core/prefilter.h"
#include "core/relevance_engine.h"
#include "datagen/datasets.h"
#include "eval/ranking.h"
#include "models/factory.h"
#include "xp/pipeline.h"

namespace kelpie {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<LinkPredictionModel> transe;
  std::unique_ptr<LinkPredictionModel> complex_model;
  std::unique_ptr<LinkPredictionModel> conve;
  Triple probe;

  Fixture()
      : dataset(MakeBenchmark(BenchmarkDataset::kFb15k237, 0.35, 7)) {
    transe = CreateAndTrain(ModelKind::kTransE, dataset, 11);
    complex_model = CreateAndTrain(ModelKind::kComplEx, dataset, 11);
    conve = CreateAndTrain(ModelKind::kConvE, dataset, 11);
    probe = dataset.test().front();
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

LinkPredictionModel& ModelByIndex(int index) {
  Fixture& f = GetFixture();
  switch (index) {
    case 0:
      return *f.transe;
    case 1:
      return *f.complex_model;
    default:
      return *f.conve;
  }
}

void BM_ScoreAllTails(benchmark::State& state) {
  Fixture& f = GetFixture();
  LinkPredictionModel& model = ModelByIndex(static_cast<int>(state.range(0)));
  std::vector<float> scores(model.num_entities());
  for (auto _ : state) {
    model.ScoreAllTails(f.probe.head, f.probe.relation, scores);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_ScoreAllTails)->Arg(0)->Arg(1)->Arg(2);

void BM_FilteredTailRank(benchmark::State& state) {
  Fixture& f = GetFixture();
  LinkPredictionModel& model = ModelByIndex(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilteredTailRank(model, f.dataset, f.probe));
  }
}
BENCHMARK(BM_FilteredTailRank)->Arg(0)->Arg(1)->Arg(2);

void BM_BfsPromisingness(benchmark::State& state) {
  Fixture& f = GetFixture();
  PreFilter prefilter(f.dataset, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prefilter.MostPromisingFacts(f.probe, PredictionTarget::kTail));
  }
}
BENCHMARK(BM_BfsPromisingness);

void BM_PostTraining(benchmark::State& state) {
  Fixture& f = GetFixture();
  LinkPredictionModel& model = ModelByIndex(static_cast<int>(state.range(0)));
  std::vector<Triple> facts = f.dataset.train_graph().FactsOf(f.probe.head);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.PostTrainMimic(f.dataset, f.probe.head, facts, rng));
  }
}
BENCHMARK(BM_PostTraining)->Arg(0)->Arg(1)->Arg(2);

void BM_NecessaryRelevance(benchmark::State& state) {
  Fixture& f = GetFixture();
  LinkPredictionModel& model = ModelByIndex(static_cast<int>(state.range(0)));
  RelevanceEngine engine(model, f.dataset, {});
  std::vector<Triple> facts = f.dataset.train_graph().FactsOf(f.probe.head);
  std::vector<Triple> candidate{facts.front()};
  const int baseline =
      engine.HomologousRank(f.probe.head, f.probe, PredictionTarget::kTail);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.NecessaryRelevance(
        f.probe, PredictionTarget::kTail, candidate, baseline));
  }
}
BENCHMARK(BM_NecessaryRelevance)->Arg(0)->Arg(1)->Arg(2);

void BM_DatasetGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MakeBenchmark(BenchmarkDataset::kWn18rr, 0.35, 7));
  }
}
BENCHMARK(BM_DatasetGeneration);

}  // namespace
}  // namespace kelpie

BENCHMARK_MAIN();
