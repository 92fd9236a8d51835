// Regenerates paper Table 4: end-to-end effectiveness of SUFFICIENT
// explanations (ΔH@1 / ΔMRR over the fictitious conversion predictions P_C
// after adding the transferred facts and retraining; more positive =
// better). Expected shape: Kelpie >= K1 > DP >> Criage, with DP degrading
// most on ConvE (its constant-ε shift fights the unstable deep gradient).
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace kelpie;
  using namespace kelpie::bench;
  BenchOptions options = ParseArgs(argc, argv);

  std::printf("Table 4: End-to-end effectiveness of sufficient explanations\n"
              "(dataset scale %.2f, |P| = %zu, |C| = %zu; more positive = "
              "better)\n\n",
              options.dataset_scale(), options.num_predictions(),
              options.conversion_size());
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
        std::fprintf(stderr, "[bench] %s/%s: too few correct predictions, "
                             "skipping\n",
                     std::string(BenchmarkDatasetName(d)).c_str(),
                     std::string(ModelKindName(kind)).c_str());
        continue;
      }
      for (auto& framework : MakeFrameworks(*model, dataset, options)) {
        EndToEndResult run = CheckedRun(RunEndToEnd(
            *framework, *model, kind, dataset, predictions,
            ExplanationKind::kSufficient, options.conversion_size(),
            options.seed + 4, options.seed + 5));
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
