// Reproduces the paper's end-of-Section-5.3 robustness check: "we have
// repeated a subset of our end-to-end experiments on 10 different samples
// of 100 tail predictions each, obtaining similar values". Runs the
// necessary-scenario end-to-end pipeline on several disjoint prediction
// samples and reports the spread of ΔH@1 / ΔMRR. Expected shape: small
// standard deviation relative to the (large, negative) means.
#include "bench/bench_util.h"

#include "math/stats.h"

int main(int argc, char** argv) {
  using namespace kelpie;
  using namespace kelpie::bench;
  BenchOptions options = ParseArgs(argc, argv);
  const size_t num_samples = options.full ? 10 : 4;
  const size_t per_sample = options.full ? 15 : 8;

  Dataset dataset = MakeBenchmark(BenchmarkDataset::kFb15k237,
                                  options.dataset_scale(), options.seed);
  auto model = TrainModel(ModelKind::kComplEx, dataset, options.seed + 1);

  std::printf("Stability of Kelpie necessary end-to-end results across %zu "
              "prediction samples (ComplEx, FB15k-237, |P| = %zu each)\n\n",
              num_samples, per_sample);
  PrintRow({"Sample", "dH@1", "dMRR", "AvgLen"});
  PrintRule(4);

  RunningStats h1_stats, mrr_stats;
  for (size_t s = 0; s < num_samples; ++s) {
    Rng sample_rng(options.seed + 100 + s);
    std::vector<Triple> predictions = SampleCorrectTailPredictions(
        *model, dataset, per_sample, sample_rng);
    if (predictions.size() < 3) continue;
    KelpieExplainer kelpie(*model, dataset, MakeKelpieOptions(options));
    EndToEndResult run = CheckedRun(RunEndToEnd(
        kelpie, *model, ModelKind::kComplEx, dataset, predictions,
        ExplanationKind::kNecessary, /*conversion_set_size=*/0,
        /*conversion_seed=*/0, options.seed + 200 + s));
    double total_len = 0.0;
    for (const Explanation& x : run.explanations) {
      total_len += static_cast<double>(x.size());
    }
    h1_stats.Add(run.delta_h1());
    mrr_stats.Add(run.delta_mrr());
    PrintRow({std::to_string(s), FormatSigned(run.delta_h1(), 3),
              FormatSigned(run.delta_mrr(), 3),
              FormatDouble(total_len /
                               static_cast<double>(run.explanations.size()),
                           2)});
  }
  PrintRule(4);
  PrintRow({"mean", FormatSigned(h1_stats.mean(), 3),
            FormatSigned(mrr_stats.mean(), 3), ""});
  PrintRow({"std", FormatDouble(h1_stats.stddev(), 3),
            FormatDouble(mrr_stats.stddev(), 3), ""});
  return 0;
}
