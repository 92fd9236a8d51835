// Regenerates paper Figure 5: average extraction time of a necessary (5a)
// and a sufficient (5b) explanation, per model and dataset. Expected shape:
// sufficient slower than necessary (each candidate is post-trained once per
// conversion entity); the densest dataset (FB15k) slowest.
//
// Each cell is extracted twice — with num_threads = 1 and with
// num_threads = N (--threads=N, default 4) — as the paper-extension
// parallel-extraction series. The chunked visiting semantics guarantee
// identical explanations; any divergence is reported as a determinism
// failure in the last column.
#include "bench/bench_util.h"

#include <thread>

#include "math/stats.h"

namespace {

/// One table cell, kept for the optional --json=PATH summary
/// (BENCH_fig5.json in the CI perf-smoke job).
struct CellResult {
  std::string dataset;
  std::string model;
  double nec_seq_s = 0.0;
  double nec_par_s = 0.0;
  double suf_seq_s = 0.0;
  double suf_par_s = 0.0;
  double post_trainings_per_necessary = 0.0;
  bool deterministic = true;
};

void WriteJson(const std::string& path, size_t threads,
               const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"threads\": %zu,\n  \"cells\": [\n", threads);
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"model\": \"%s\", "
                 "\"necessary_seq_s\": %.4f, \"necessary_par_s\": %.4f, "
                 "\"sufficient_seq_s\": %.4f, \"sufficient_par_s\": %.4f, "
                 "\"post_trainings_per_necessary\": %.1f, "
                 "\"deterministic\": %s}%s\n",
                 c.dataset.c_str(), c.model.c_str(), c.nec_seq_s,
                 c.nec_par_s, c.suf_seq_s, c.suf_par_s,
                 c.post_trainings_per_necessary,
                 c.deterministic ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kelpie;
  using namespace kelpie::bench;
  BenchOptions options = ParseArgs(argc, argv);
  const size_t per_cell = options.full ? 10 : 4;
  const size_t threads = options.threads;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("Figure 5: average extraction times in seconds "
              "(%zu predictions per cell; T%zu = %zu extraction threads; "
              "%u hardware core%s)\n",
              per_cell, threads, threads, cores, cores == 1 ? "" : "s");
  if (cores < threads) {
    std::printf("note: fewer cores than extraction threads — the speedup "
                "columns measure scheduling overhead, not parallel gain\n");
  }
  std::printf("\n");
  PrintRow({"Dataset", "Model", "Nec T1(s)", "Nec T" + std::to_string(threads),
            "Speedup", "Suf T1(s)", "Suf T" + std::to_string(threads),
            "Speedup", "PT/nec", "Match"},
           12);
  PrintRule(10, 12);

  std::vector<CellResult> cells;
  for (BenchmarkDataset d : AllBenchmarkDatasets()) {
    Dataset dataset = MakeBenchmark(d, options.dataset_scale(), options.seed);
    for (ModelKind kind : options.models()) {
      auto model = TrainModel(kind, dataset, options.seed + 1);
      Rng rng(options.seed + 2);
      std::vector<Triple> predictions =
          SampleCorrectTailPredictions(*model, dataset, per_cell, rng);
      if (predictions.empty()) continue;
      KelpieOptions seq_options = MakeKelpieOptions(options);
      KelpieOptions par_options = seq_options;
      par_options.engine.num_threads = threads;
      KelpieExplainer seq(*model, dataset, seq_options);
      KelpieExplainer par(*model, dataset, par_options);
      RunningStats nec1, necN, suf1, sufN, nec_pt;
      bool all_match = true;
      Rng conv_rng(options.seed + 4);
      for (const Triple& p : predictions) {
        // Post-training cost of the sequential extraction, read as a delta
        // of the process metrics registry (exact at num_threads = 1).
        const uint64_t pt_before = TotalPostTrainings();
        Explanation n1 = seq.ExplainNecessary(p, PredictionTarget::kTail);
        const uint64_t pt_nec = TotalPostTrainings() - pt_before;
        Explanation nN = par.ExplainNecessary(p, PredictionTarget::kTail);
        nec1.Add(n1.seconds);
        necN.Add(nN.seconds);
        nec_pt.Add(static_cast<double>(pt_nec));
        all_match = all_match && n1.facts == nN.facts &&
                    n1.relevance == nN.relevance &&
                    n1.visited_candidates == nN.visited_candidates;
        std::vector<EntityId> conversion_set = SampleConversionEntities(
            *model, dataset, p, PredictionTarget::kTail,
            options.conversion_size(), conv_rng);
        if (conversion_set.empty()) continue;
        Explanation s1 =
            seq.ExplainSufficient(p, PredictionTarget::kTail, conversion_set);
        Explanation sN =
            par.ExplainSufficient(p, PredictionTarget::kTail, conversion_set);
        suf1.Add(s1.seconds);
        sufN.Add(sN.seconds);
        all_match = all_match && s1.facts == sN.facts &&
                    s1.relevance == sN.relevance &&
                    s1.visited_candidates == sN.visited_candidates;
      }
      auto speedup = [](const RunningStats& a, const RunningStats& b) {
        return b.mean() > 0.0 ? a.mean() / b.mean() : 0.0;
      };
      PrintRow({std::string(BenchmarkDatasetName(d)),
                std::string(ModelKindName(kind)),
                FormatDouble(nec1.mean(), 3), FormatDouble(necN.mean(), 3),
                FormatDouble(speedup(nec1, necN), 2) + "x",
                FormatDouble(suf1.mean(), 3), FormatDouble(sufN.mean(), 3),
                FormatDouble(speedup(suf1, sufN), 2) + "x",
                FormatDouble(nec_pt.mean(), 1), all_match ? "yes" : "NO"},
               12);
      cells.push_back({std::string(BenchmarkDatasetName(d)),
                       std::string(ModelKindName(kind)), nec1.mean(),
                       necN.mean(), suf1.mean(), sufN.mean(),
                       nec_pt.mean(), all_match});
    }
  }
  if (!options.json_path.empty()) {
    WriteJson(options.json_path, threads, cells);
  }
  return 0;
}
