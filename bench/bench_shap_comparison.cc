// Regenerates the Section 4.3 comparison between the Explanation Builder
// and a KernelSHAP-style exploration of the same candidate space. Both
// strategies consume the same cost unit — one post-training per coalition /
// candidate evaluation. Expected shape: KernelSHAP needs orders of
// magnitude more evaluations to produce stable Shapley attributions than
// the Explanation Builder needs to find an accepted explanation.
#include <cmath>

#include "bench/bench_util.h"

#include "core/prefilter.h"
#include "core/relevance_engine.h"

namespace {

using namespace kelpie;

/// Solves the (k+1)x(k+1) linear system A x = b by Gaussian elimination
/// with partial pivoting (KernelSHAP's weighted regression normal
/// equations). Returns false on a singular system.
bool SolveLinearSystem(std::vector<std::vector<double>>& a,
                       std::vector<double>& b) {
  const size_t n = b.size();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) pivot = row;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t row = col + 1; row < n; ++row) {
      double factor = a[row][col] / a[col][col];
      for (size_t c2 = col; c2 < n; ++c2) {
        a[row][c2] -= factor * a[col][c2];
      }
      b[row] -= factor * b[col];
    }
  }
  for (size_t col = n; col-- > 0;) {
    for (size_t row = 0; row < col; ++row) {
      b[row] -= a[row][col] / a[col][col] * b[col];
    }
    b[col] /= a[col][col];
  }
  return true;
}

/// KernelSHAP over the Pre-Filtered facts: features are facts, the value of
/// a coalition is its necessary relevance (each evaluation costs one
/// post-training, like a Builder visit). Samples coalitions in rounds and
/// refits the weighted regression until the attribution vector stabilizes.
/// Returns the number of value-function evaluations consumed.
size_t RunKernelShap(RelevanceEngine& engine, const Triple& prediction,
                     const std::vector<Triple>& facts, Rng& rng,
                     size_t max_evaluations) {
  const size_t k = facts.size();
  // Accumulated normal equations: design is [z_1..z_k, 1], weighted by the
  // SHAP kernel weight of the coalition size.
  std::vector<std::vector<double>> xtx(k + 1,
                                       std::vector<double>(k + 1, 0.0));
  std::vector<double> xty(k + 1, 0.0);
  std::vector<double> previous(k, 0.0);
  size_t evaluations = 0;
  const size_t round_size = 64;
  const double tolerance = 0.25;  // rank units
  // One homologous baseline for every coalition, as in a Builder extraction.
  const int baseline = engine.HomologousRank(prediction.head, prediction,
                                             PredictionTarget::kTail);

  while (evaluations < max_evaluations) {
    for (size_t s = 0; s < round_size && evaluations < max_evaluations;
         ++s) {
      // Draw a non-trivial coalition (KernelSHAP's kernel is infinite at
      // the empty/full coalitions; they are handled as constraints — here
      // approximated by large weights).
      size_t size = 1 + static_cast<size_t>(rng.UniformUint64(k - 1));
      std::vector<size_t> members =
          rng.SampleWithoutReplacement(k, size);
      std::vector<Triple> coalition;
      for (size_t m : members) coalition.push_back(facts[m]);
      double value = engine.NecessaryRelevance(
          prediction, PredictionTarget::kTail, coalition, baseline);
      ++evaluations;
      double weight =
          static_cast<double>(k - 1) /
          (static_cast<double>(size) * static_cast<double>(k - size));
      std::vector<double> z(k + 1, 0.0);
      for (size_t m : members) z[m] = 1.0;
      z[k] = 1.0;
      for (size_t i = 0; i <= k; ++i) {
        if (z[i] == 0.0) continue;
        for (size_t j = 0; j <= k; ++j) {
          xtx[i][j] += weight * z[i] * z[j];
        }
        xty[i] += weight * z[i] * value;
      }
    }
    // Refit and test convergence of the attribution vector.
    std::vector<std::vector<double>> a = xtx;
    for (size_t i = 0; i <= k; ++i) a[i][i] += 1e-6;  // ridge
    std::vector<double> b = xty;
    if (!SolveLinearSystem(a, b)) continue;
    double max_change = 0.0;
    for (size_t i = 0; i < k; ++i) {
      max_change = std::max(max_change, std::fabs(b[i] - previous[i]));
      previous[i] = b[i];
    }
    if (evaluations > round_size && max_change < tolerance) break;
  }
  return evaluations;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kelpie::bench;
  BenchOptions options = ParseArgs(argc, argv);

  Dataset dataset = MakeBenchmark(BenchmarkDataset::kFb15k237,
                                  options.dataset_scale(), options.seed);
  auto model = TrainModel(ModelKind::kComplEx, dataset, options.seed + 1);
  Rng rng(options.seed + 2);
  const size_t num_predictions = options.full ? 4 : 2;
  std::vector<Triple> predictions = SampleCorrectTailPredictions(
      *model, dataset, num_predictions, rng);

  std::printf("Explanation Builder vs KernelSHAP: post-trainings consumed "
              "per prediction\n(the paper reports dozens-hundreds vs "
              "hundreds of thousands at full scale)\n\n");
  PrintRow({"Prediction", "k", "Builder", "KernelSHAP", "Ratio"}, 14);
  PrintRule(5, 14);

  const size_t shap_cap = options.full ? 4000 : 1200;
  for (const Triple& p : predictions) {
    KelpieOptions kelpie_options = MakeKelpieOptions(options);
    Kelpie kelpie(*model, dataset, kelpie_options);
    Explanation x = kelpie.ExplainNecessary(p, PredictionTarget::kTail);
    size_t builder_cost = x.post_trainings;

    PreFilter prefilter(dataset, kelpie_options.prefilter);
    std::vector<Triple> facts =
        prefilter.MostPromisingFacts(p, PredictionTarget::kTail);
    if (facts.size() < 3) continue;
    RelevanceEngine engine(*model, dataset, kelpie_options.engine);
    Rng shap_rng(options.seed + 9);
    size_t shap_cost =
        RunKernelShap(engine, p, facts, shap_rng, shap_cap);
    std::string suffix = shap_cost >= shap_cap ? "+ (capped)" : "";
    PrintRow({dataset.TripleToString(p).substr(0, 13),
              std::to_string(facts.size()), std::to_string(builder_cost),
              std::to_string(shap_cost) + suffix,
              kelpie::FormatDouble(
                  static_cast<double>(shap_cost) /
                      std::max<size_t>(1, builder_cost),
                  1) + "x"},
             14);
  }
  return 0;
}
