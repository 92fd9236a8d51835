// Regenerates paper Table 3: end-to-end effectiveness of NECESSARY
// explanations (ΔH@1 / ΔMRR after removing the explanations and retraining;
// more negative = more effective). Frameworks: K1, Kelpie, DP, Criage
// (Criage skipped for TransE, as in the paper). Expected shape: Kelpie most
// negative nearly everywhere; K1 and DP competitive; Criage weak.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace kelpie;
  using namespace kelpie::bench;
  BenchOptions options = ParseArgs(argc, argv);

  std::printf("Table 3: End-to-end effectiveness of necessary explanations\n"
              "(dataset scale %.2f, |P| = %zu per cell; more negative = "
              "better)\n\n",
              options.dataset_scale(), options.num_predictions());
  PrintRow({"Dataset", "Model", "Framework", "dH@1", "dMRR", "AvgLen"});
  PrintRule(6);

  for (BenchmarkDataset d : options.datasets()) {
    Dataset dataset = MakeBenchmark(d, options.dataset_scale(), options.seed);
    for (ModelKind kind : options.models()) {
      auto model = TrainModel(kind, dataset, options.seed + 1);
      Rng sample_rng(options.seed + 2);
      std::vector<Triple> predictions = SampleCorrectTailPredictions(
          *model, dataset, options.num_predictions(), sample_rng);
      if (predictions.size() < 3) {
        std::fprintf(stderr,
                     "[bench] %s/%s: too few correct predictions (%zu), "
                     "skipping\n",
                     std::string(BenchmarkDatasetName(d)).c_str(),
                     std::string(ModelKindName(kind)).c_str(),
                     predictions.size());
        continue;
      }
      for (auto& framework : MakeFrameworks(*model, dataset, options)) {
        EndToEndResult run = CheckedRun(RunEndToEnd(
            *framework, *model, kind, dataset, predictions,
            ExplanationKind::kNecessary, /*conversion_set_size=*/0,
            /*conversion_seed=*/0, options.seed + 3));
        double total_len = 0.0;
        for (const Explanation& x : run.explanations) {
          total_len += static_cast<double>(x.size());
        }
        PrintRow({std::string(BenchmarkDatasetName(d)),
                  std::string(ModelKindName(kind)),
                  std::string(framework->Name()),
                  FormatSigned(run.delta_h1(), 3),
                  FormatSigned(run.delta_mrr(), 3),
                  FormatDouble(total_len /
                                   static_cast<double>(run.explanations.size()),
                               2)});
      }
    }
  }
  return 0;
}
