// Regenerates paper Table 6: minimality of the extracted explanations.
// Each Kelpie explanation is replaced by a random strict subset; the model
// is retrained with the sub-sampled explanations applied, and the loss of
// effectiveness (sub - full) / full is reported. Expected shape: strongly
// negative percentages everywhere — the full explanations are (close to)
// minimal, so removing any part destroys much of their effect.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace kelpie;
  using namespace kelpie::bench;
  BenchOptions options = ParseArgs(argc, argv);

  std::printf("Table 6: Loss in effectiveness when sub-sampling necessary "
              "and sufficient explanations\n\n");
  PrintRow({"Dataset", "Model", "Nec.H@1", "Nec.MRR", "Suf.H@1", "Suf.MRR"},
           13);
  PrintRule(6, 13);

  auto percent = [](double v) { return FormatDouble(v * 100.0, 1) + "%"; };

  for (BenchmarkDataset d : options.datasets()) {
    Dataset dataset = MakeBenchmark(d, options.dataset_scale(), options.seed);
    for (ModelKind kind : options.models()) {
      auto model = TrainModel(kind, dataset, options.seed + 1);
      Rng sample_rng(options.seed + 2);
      std::vector<Triple> predictions = SampleCorrectTailPredictions(
          *model, dataset, options.num_predictions(), sample_rng);
      if (predictions.size() < 3) continue;

      KelpieExplainer kelpie(*model, dataset, MakeKelpieOptions(options));

      // ---- Necessary scenario. ----
      EndToEndResult full_nec = CheckedRun(RunEndToEnd(
          kelpie, *model, kind, dataset, predictions,
          ExplanationKind::kNecessary, /*conversion_set_size=*/0,
          /*conversion_seed=*/0, options.seed + 3));
      Rng sub_rng(options.seed + 6);
      std::vector<std::vector<Triple>> sub_nec =
          SubsampleExplanations(full_nec.explanations, sub_rng);
      std::vector<Triple> sub_removed;
      for (const auto& facts : sub_nec) {
        sub_removed.insert(sub_removed.end(), facts.begin(), facts.end());
      }
      LpMetrics sub_nec_metrics = RetrainAndMeasureTails(
          kind, dataset, predictions, sub_removed, {}, options.seed + 3);
      double nec_h1_loss = EffectivenessLoss(
          full_nec.delta_h1(),
          sub_nec_metrics.hits_at_1 - full_nec.before.hits_at_1);
      double nec_mrr_loss = EffectivenessLoss(
          full_nec.delta_mrr(), sub_nec_metrics.mrr - full_nec.before.mrr);

      // ---- Sufficient scenario. ----
      EndToEndResult full_suf = CheckedRun(RunEndToEnd(
          kelpie, *model, kind, dataset, predictions,
          ExplanationKind::kSufficient, options.conversion_size(),
          options.seed + 4, options.seed + 5));
      std::vector<std::vector<Triple>> sub_suf_facts =
          SubsampleExplanations(full_suf.explanations, sub_rng);
      std::vector<Explanation> sub_suf(full_suf.explanations.size());
      for (size_t i = 0; i < sub_suf.size(); ++i) {
        sub_suf[i].facts = sub_suf_facts[i];
      }
      std::vector<Triple> converted =
          ConversionPredictions(predictions, full_suf.conversion_sets);
      std::vector<Triple> sub_added = TransferredFacts(
          predictions, sub_suf, full_suf.conversion_sets);
      LpMetrics sub_suf_metrics = RetrainAndMeasureTails(
          kind, dataset, converted, {}, sub_added, options.seed + 5);
      double suf_h1_loss = EffectivenessLoss(
          full_suf.delta_h1(),
          sub_suf_metrics.hits_at_1 - full_suf.before.hits_at_1);
      double suf_mrr_loss = EffectivenessLoss(
          full_suf.delta_mrr(), sub_suf_metrics.mrr - full_suf.before.mrr);

      PrintRow({std::string(BenchmarkDatasetName(d)),
                std::string(ModelKindName(kind)), percent(nec_h1_loss),
                percent(nec_mrr_loss), percent(suf_h1_loss),
                percent(suf_mrr_loss)},
               13);
    }
  }
  return 0;
}
