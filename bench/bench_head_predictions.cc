// The paper notes (Section 5.3) that "an analogous methodology can be
// defined for head predictions" — this bench runs it: the necessary and
// sufficient end-to-end pipelines over correct HEAD predictions
// (explanations are built from the tail entity's facts, conversions
// replace the tail). Expected shape: the same qualitative behaviour as
// Tables 3-4, with effectiveness of the same order.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace kelpie;
  using namespace kelpie::bench;
  BenchOptions options = ParseArgs(argc, argv);

  Dataset dataset = MakeBenchmark(BenchmarkDataset::kFb15k237,
                                  options.dataset_scale(), options.seed);
  auto model = TrainModel(ModelKind::kComplEx, dataset, options.seed + 1);
  Rng rng(options.seed + 2);
  std::vector<Triple> predictions =
      SampleCorrectPredictions(*model, dataset, options.num_predictions(),
                               PredictionTarget::kHead, rng);
  if (predictions.size() < 3) {
    std::printf("too few correct head predictions at this scale; rerun "
                "with --full\n");
    return 0;
  }

  std::printf("Head-prediction end-to-end (ComplEx, FB15k-237, |P| = %zu)\n\n",
              predictions.size());
  PrintRow({"Scenario", "Framework", "dH@1", "dMRR", "AvgLen"});
  PrintRule(5);

  for (auto& framework : MakeFrameworks(*model, dataset, options)) {
    EndToEndResult run = CheckedRun(RunEndToEnd(
        *framework, *model, ModelKind::kComplEx, dataset, predictions,
        ExplanationKind::kNecessary, /*conversion_set_size=*/0,
        /*conversion_seed=*/0, options.seed + 3, PredictionTarget::kHead));
    double total_len = 0.0;
    for (const Explanation& x : run.explanations) {
      total_len += static_cast<double>(x.size());
    }
    PrintRow({"necessary", std::string(framework->Name()),
              FormatSigned(run.delta_h1(), 3),
              FormatSigned(run.delta_mrr(), 3),
              FormatDouble(total_len /
                               static_cast<double>(run.explanations.size()),
                           2)});
  }

  for (auto& framework : MakeFrameworks(*model, dataset, options)) {
    EndToEndResult run = CheckedRun(RunEndToEnd(
        *framework, *model, ModelKind::kComplEx, dataset, predictions,
        ExplanationKind::kSufficient, options.conversion_size(),
        options.seed + 4, options.seed + 5, PredictionTarget::kHead));
    double total_len = 0.0;
    for (const Explanation& x : run.explanations) {
      total_len += static_cast<double>(x.size());
    }
    PrintRow({"sufficient", std::string(framework->Name()),
              FormatSigned(run.delta_h1(), 3),
              FormatSigned(run.delta_mrr(), 3),
              FormatDouble(total_len /
                               static_cast<double>(run.explanations.size()),
                           2)});
  }
  return 0;
}
