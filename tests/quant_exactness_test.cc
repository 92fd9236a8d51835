// Exactness guarantees of the quantized shortlist fast path (math/quant.h,
// eval/ranking.cc, DESIGN.md §15), in two layers:
//
//  1. Property harness over the shortlist primitive: for fuzzed tables of
//     dims 1..67 (including duplicated rows and rows differing in the last
//     ulp — adversarial near-ties), SelectShortlist must return a superset
//     of the true top-K by *exact* float kernel value, for both kernels,
//     at several K and slack values.
//
//  2. End-to-end byte-identity: filtered ranks, evaluation metrics,
//     conversion sets and relevances of all five models are bitwise equal
//     with the quantized path on or off, at 1 and 4 threads, because every
//     candidate is either classified through a certified interval or
//     re-scored through the same per-row kernels the exact sweep uses.
#include "math/quant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "core/relevance_engine.h"
#include "eval/evaluator.h"
#include "eval/ranking.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "math/simd.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

constexpr size_t kMaxDim = 67;  // covers every remainder mod 8 twice, plus 3

/// Fuzz table: 40 random rows, 4 exact duplicates of early rows, and 4
/// copies nudged by one ulp in one element — the hardest inputs for a
/// pruner, because approximate scores cannot separate them.
Matrix FuzzTable(size_t dim, Rng& rng) {
  Matrix m(48, dim);
  for (size_t r = 0; r < 40; ++r) {
    for (size_t j = 0; j < dim; ++j) {
      m.At(r, j) = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
    }
  }
  for (size_t k = 0; k < 4; ++k) {
    for (size_t j = 0; j < dim; ++j) {
      m.At(40 + k, j) = m.At(k, j);
      m.At(44 + k, j) = m.At(k, j);
    }
    m.At(44 + k, 0) = std::nextafter(m.At(k, 0), 100.0f);
  }
  return m;
}

/// The strongest, tie-break-proof form of "true top-K": every row whose
/// exact value ties or beats the K-th best exact value.
std::unordered_set<size_t> TrueTopK(const std::vector<float>& final_scores,
                                    size_t k) {
  std::vector<float> sorted = final_scores;
  std::sort(sorted.begin(), sorted.end(), std::greater<float>());
  const float kth = sorted[std::min(k, sorted.size()) - 1];
  std::unordered_set<size_t> top;
  for (size_t i = 0; i < final_scores.size(); ++i) {
    if (final_scores[i] >= kth) top.insert(i);
  }
  return top;
}

TEST(QuantShortlistPropertyTest, DotShortlistIsSupersetOfTrueTopK) {
  for (size_t dim = 1; dim <= kMaxDim; ++dim) {
    for (uint64_t seed : {11u, 29u}) {
      Rng rng(seed * 1000 + dim);
      Matrix m = FuzzTable(dim, rng);
      std::vector<float> x(dim);
      for (float& v : x) v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      std::shared_ptr<const quant::QuantizedTable> qt =
          quant::QuantizeRowMajor(m);
      ASSERT_NE(qt, nullptr);
      quant::QuantizedVec qx = quant::QuantizeVec(x);
      std::vector<double> approx(m.rows()), err(m.rows());
      quant::ApproxDots(*qt, qx, approx, err);
      std::vector<float> exact(m.rows());
      for (size_t r = 0; r < m.rows(); ++r) exact[r] = simd::Dot(m.Row(r), x);
      for (size_t k : {1u, 5u, 10u}) {
        for (size_t slack : {0u, 3u}) {
          std::vector<size_t> shortlist =
              quant::SelectShortlist(approx, err, k, slack, /*largest=*/true);
          std::unordered_set<size_t> in(shortlist.begin(), shortlist.end());
          for (size_t i : TrueTopK(exact, k)) {
            EXPECT_TRUE(in.count(i))
                << "dot dim=" << dim << " seed=" << seed << " k=" << k
                << " slack=" << slack << " dropped true-top row " << i;
          }
        }
      }
    }
  }
}

TEST(QuantShortlistPropertyTest, DistanceShortlistIsSupersetOfTrueTopK) {
  for (size_t dim = 1; dim <= kMaxDim; ++dim) {
    for (uint64_t seed : {13u, 31u}) {
      Rng rng(seed * 1000 + dim);
      Matrix m = FuzzTable(dim, rng);
      std::vector<float> x(dim);
      for (float& v : x) v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      std::shared_ptr<const quant::QuantizedTable> qt =
          quant::QuantizeRowMajor(m);
      ASSERT_NE(qt, nullptr);
      quant::QuantizedVec qx = quant::QuantizeVec(x);
      std::vector<double> approx(m.rows()), err(m.rows());
      quant::ApproxSquaredDistances(*qt, qx, approx, err);
      // Final scores exactly as the distance models compute them.
      std::vector<float> final_scores(m.rows());
      for (size_t r = 0; r < m.rows(); ++r) {
        final_scores[r] = -std::sqrt(simd::SquaredDistance(m.Row(r), x));
      }
      for (size_t k : {1u, 5u, 10u}) {
        for (size_t slack : {0u, 3u}) {
          std::vector<size_t> shortlist =
              quant::SelectShortlist(approx, err, k, slack, /*largest=*/false);
          std::unordered_set<size_t> in(shortlist.begin(), shortlist.end());
          for (size_t i : TrueTopK(final_scores, k)) {
            EXPECT_TRUE(in.count(i))
                << "dist dim=" << dim << " seed=" << seed << " k=" << k
                << " slack=" << slack << " dropped true-top row " << i;
          }
        }
      }
    }
  }
}

TEST(QuantShortlistPropertyTest, InfiniteErrorRowsAreNeverPruned) {
  // err = +Inf (non-finite source rows) must survive any threshold.
  std::vector<double> approx{5.0, 1.0, 0.0};
  std::vector<double> err{0.1, 0.1,
                          std::numeric_limits<double>::infinity()};
  for (bool largest : {true, false}) {
    std::vector<size_t> s = quant::SelectShortlist(approx, err, 1, 0, largest);
    EXPECT_TRUE(std::find(s.begin(), s.end(), 2u) != s.end());
  }
}

// ---------------------------------------------------------------------------
// End-to-end byte-identity across all five models.
// ---------------------------------------------------------------------------

const Dataset& ToyDataset() {
  static const Dataset* dataset =
      new Dataset(testing_util::MakeToyDataset());
  return *dataset;
}

/// Models are expensive to train; share one per kind across tests (they are
/// only read — mutation tests make their own copies of rows and restore).
LinkPredictionModel& ToyModel(ModelKind kind) {
  static auto* cache =
      new std::map<ModelKind, std::unique_ptr<LinkPredictionModel>>();
  auto it = cache->find(kind);
  if (it == cache->end()) {
    it = cache->emplace(kind, testing_util::TrainToyModel(kind, ToyDataset()))
             .first;
  }
  return *it->second;
}

const ModelKind kAllKinds[] = {ModelKind::kTransE, ModelKind::kRotatE,
                               ModelKind::kDistMult, ModelKind::kComplEx,
                               ModelKind::kConvE};

TEST(QuantExactnessTest, FilteredRanksByteIdenticalQuantOnVsOff) {
  const Dataset& dataset = ToyDataset();
  const RankingOptions on{true};
  const RankingOptions off{false};
  for (ModelKind kind : kAllKinds) {
    const LinkPredictionModel& model = ToyModel(kind);
    metrics::ScopedRegistry scoped;  // isolates the engagement counters
    for (const Triple& t : dataset.test()) {
      EXPECT_EQ(FilteredTailRank(model, dataset, t, on),
                FilteredTailRank(model, dataset, t, off))
          << model.Name() << " tail " << t.head << "," << t.relation << ","
          << t.tail;
      EXPECT_EQ(FilteredHeadRank(model, dataset, t, on),
                FilteredHeadRank(model, dataset, t, off))
          << model.Name() << " head";
      EXPECT_EQ(FilteredRank(model, dataset, t, PredictionTarget::kTail, on),
                FilteredRank(model, dataset, t, PredictionTarget::kTail, off));
    }
    // The identity must not be vacuous: the quantized path really served
    // these ranks (no silent fallback to the exact sweep).
    metrics::Registry& reg = metrics::Registry::Global();
    EXPECT_GT(reg.GetCounter("kelpie_quant_sweeps_total", {}).Value(), 0u)
        << model.Name();
    EXPECT_EQ(reg.GetCounter("kelpie_quant_fallbacks_total", {}).Value(), 0u)
        << model.Name();
  }
}

TEST(QuantExactnessTest, MimicOverrideRanksByteIdenticalQuantOnVsOff) {
  // The relevance engine's hot call ranks with an override vector standing
  // in for an entity (the mimic). Perturbed vectors, including near-tie
  // nudges, must rank identically through both paths.
  const Dataset& dataset = ToyDataset();
  const RankingOptions on{true};
  const RankingOptions off{false};
  for (ModelKind kind : kAllKinds) {
    const LinkPredictionModel& model = ToyModel(kind);
    const Triple probe = dataset.test().front();
    Rng rng(77);
    for (int trial = 0; trial < 4; ++trial) {
      std::span<const float> base = model.EntityEmbedding(probe.head);
      std::vector<float> mimic(base.begin(), base.end());
      if (trial == 1) {
        for (float& v : mimic) {
          v += static_cast<float>(rng.UniformDouble(-0.05, 0.05));
        }
      } else if (trial == 2) {
        mimic[0] = std::nextafter(mimic[0], 100.0f);  // one-ulp near-tie
      } else if (trial == 3) {
        for (float& v : mimic) v = 0.0f;  // degenerate zero query
      }
      EXPECT_EQ(FilteredTailRankWithHeadVec(model, dataset, probe.head, mimic,
                                            probe.relation, probe.tail, on),
                FilteredTailRankWithHeadVec(model, dataset, probe.head, mimic,
                                            probe.relation, probe.tail, off))
          << model.Name() << " trial " << trial;
      EXPECT_EQ(FilteredHeadRankWithTailVec(model, dataset, probe.tail, mimic,
                                            probe.relation, probe.head, on),
                FilteredHeadRankWithTailVec(model, dataset, probe.tail, mimic,
                                            probe.relation, probe.head, off))
          << model.Name() << " trial " << trial;
    }
  }
}

uint64_t Bits64(double d) { return std::bit_cast<uint64_t>(d); }

TEST(QuantExactnessTest, EvaluateByteIdenticalAcrossThreadsAndQuant) {
  const Dataset& dataset = ToyDataset();
  for (ModelKind kind : kAllKinds) {
    const LinkPredictionModel& model = ToyModel(kind);
    EvalResult reference;  // threads=1, quant off
    bool have_reference = false;
    for (size_t threads : {1u, 4u}) {
      for (bool quant : {false, true}) {
        EvalOptions options;
        options.num_threads = threads;
        options.quantized_shortlist = quant;
        EvalResult result = EvaluateTest(model, dataset, options);
        if (!have_reference) {
          reference = result;
          have_reference = true;
          continue;
        }
        EXPECT_EQ(Bits64(result.Mrr()), Bits64(reference.Mrr()))
            << model.Name() << " threads=" << threads << " quant=" << quant;
        EXPECT_EQ(Bits64(result.HitsAt(1)), Bits64(reference.HitsAt(1)))
            << model.Name() << " threads=" << threads << " quant=" << quant;
        EXPECT_EQ(Bits64(result.HitsAt(10)), Bits64(reference.HitsAt(10)))
            << model.Name() << " threads=" << threads << " quant=" << quant;
      }
    }
  }
}

TEST(QuantExactnessTest, NearTieEntityRowsRankIdentically) {
  // Engineer exact ties and one-ulp separations inside the entity table
  // itself, then rank across them: the uncertain band must re-score through
  // the exact kernels and agree with the exact sweep on every comparison.
  const Dataset& dataset = ToyDataset();
  const RankingOptions on{true};
  const RankingOptions off{false};
  for (ModelKind kind : kAllKinds) {
    LinkPredictionModel& model = ToyModel(kind);
    const Triple probe = dataset.test().front();
    // Save rows 0 and 1, overwrite with tail's row (exact tie) and a
    // one-ulp nudge of it, compare, restore.
    std::vector<float> save0(model.EntityEmbedding(0).begin(),
                             model.EntityEmbedding(0).end());
    std::vector<float> save1(model.EntityEmbedding(1).begin(),
                             model.EntityEmbedding(1).end());
    std::span<const float> target_row = model.EntityEmbedding(probe.tail);
    std::vector<float> tie(target_row.begin(), target_row.end());
    std::copy(tie.begin(), tie.end(), model.MutableEntityEmbedding(0).begin());
    tie[0] = std::nextafter(tie[0], 100.0f);
    std::copy(tie.begin(), tie.end(), model.MutableEntityEmbedding(1).begin());
    EXPECT_EQ(FilteredTailRank(model, dataset, probe, on),
              FilteredTailRank(model, dataset, probe, off))
        << model.Name() << " with engineered ties";
    std::copy(save0.begin(), save0.end(),
              model.MutableEntityEmbedding(0).begin());
    std::copy(save1.begin(), save1.end(),
              model.MutableEntityEmbedding(1).begin());
  }
}

TEST(QuantExactnessTest, RelevanceAndConversionSetsByteIdentical) {
  // The relevance engine consumes ranks through the quantized path: its
  // conversion sets (sampled by rank) and relevances (rank differences
  // after post-training) must be byte-identical with the flag on or off.
  const Dataset& dataset = ToyDataset();
  const LinkPredictionModel& model = ToyModel(ModelKind::kComplEx);
  Triple prediction;
  bool found = false;
  for (const Triple& t : dataset.test()) {
    if (FilteredTailRank(model, dataset, t) == 1) {
      prediction = t;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  Triple evidence;
  for (const Triple& f : dataset.train_graph().FactsOf(prediction.head)) {
    if (f.relation == 0 && f.head == prediction.head) {
      evidence = f;
      break;
    }
  }
  ASSERT_NE(evidence.head, kNoEntity);

  RelevanceEngineOptions quant_on;
  quant_on.quantized_shortlist = true;
  quant_on.conversion_set_size = 5;
  RelevanceEngineOptions quant_off;
  quant_off.quantized_shortlist = false;
  quant_off.conversion_set_size = 5;
  RelevanceEngine engine_on(model, dataset, quant_on);
  RelevanceEngine engine_off(model, dataset, quant_off);

  Rng rng_on(quant_on.seed);
  Rng rng_off(quant_off.seed);
  EXPECT_EQ(
      engine_on.SampleConversionSet(prediction, PredictionTarget::kTail,
                                    rng_on),
      engine_off.SampleConversionSet(prediction, PredictionTarget::kTail,
                                     rng_off));
  const double rel_on = engine_on.NecessaryRelevance(
      prediction, PredictionTarget::kTail, {evidence},
      engine_on.HomologousRank(prediction.head, prediction,
                               PredictionTarget::kTail));
  const double rel_off = engine_off.NecessaryRelevance(
      prediction, PredictionTarget::kTail, {evidence},
      engine_off.HomologousRank(prediction.head, prediction,
                                PredictionTarget::kTail));
  EXPECT_EQ(Bits64(rel_on), Bits64(rel_off));
}

TEST(QuantExactnessTest, FallbackCoversModelsWithoutSweepSupport) {
  // A model that exposes no CandidateSweep must silently fall back and
  // still return the exact rank; the fallback counter records it.
  class OpaqueModel final : public LinkPredictionModel {
   public:
    explicit OpaqueModel(const LinkPredictionModel& inner)
        : LinkPredictionModel(TrainConfig{}), inner_(inner) {}
    std::string_view Name() const override { return "Opaque"; }
    size_t num_entities() const override { return inner_.num_entities(); }
    size_t num_relations() const override { return inner_.num_relations(); }
    size_t entity_dim() const override { return inner_.entity_dim(); }
    Status Train(const Dataset&, Rng&, const TrainControl&) override {
      return Status::Ok();
    }
    float Score(const Triple& t) const override { return inner_.Score(t); }
    void ScoreAllTails(EntityId h, RelationId r,
                       std::span<float> out) const override {
      inner_.ScoreAllTails(h, r, out);
    }
    void ScoreAllHeads(RelationId r, EntityId t,
                       std::span<float> out) const override {
      inner_.ScoreAllHeads(r, t, out);
    }
    void ScoreAllTailsWithHeadVec(std::span<const float> h, RelationId r,
                                  std::span<float> out) const override {
      inner_.ScoreAllTailsWithHeadVec(h, r, out);
    }
    void ScoreAllHeadsWithTailVec(RelationId r, std::span<const float> t,
                                  std::span<float> out) const override {
      inner_.ScoreAllHeadsWithTailVec(r, t, out);
    }
    float ScoreWithEntityVec(const Triple& t, EntityId which,
                             std::span<const float> vec) const override {
      return inner_.ScoreWithEntityVec(t, which, vec);
    }
    std::vector<float> ScoreGradWrtHead(const Triple& t) const override {
      return inner_.ScoreGradWrtHead(t);
    }
    std::vector<float> ScoreGradWrtTail(const Triple& t) const override {
      return inner_.ScoreGradWrtTail(t);
    }
    using LinkPredictionModel::PostTrainMimic;
    std::vector<float> PostTrainMimic(const Dataset& d, EntityId e,
                                      const std::vector<Triple>& f, Rng& rng,
                                      std::span<const float> w)
        const override {
      return inner_.PostTrainMimic(d, e, f, rng, w);
    }
    std::span<const float> EntityEmbedding(EntityId e) const override {
      return inner_.EntityEmbedding(e);
    }
    std::span<float> MutableEntityEmbedding(EntityId) override {
      KELPIE_CHECK(false);
      return {};
    }
    Status SaveParameters(std::ostream&) const override {
      return Status::Ok();
    }
    Status LoadParameters(std::istream&) override { return Status::Ok(); }
    // No TailSweepWithHeadVec / EntityTable overrides: the base class
    // defaults (nullopt / nullptr) exercise the fallback.

   private:
    const LinkPredictionModel& inner_;
  };

  const Dataset& dataset = ToyDataset();
  OpaqueModel opaque(ToyModel(ModelKind::kComplEx));
  metrics::ScopedRegistry scoped;
  const Triple probe = dataset.test().front();
  EXPECT_EQ(FilteredTailRank(opaque, dataset, probe, RankingOptions{true}),
            FilteredTailRank(opaque, dataset, probe, RankingOptions{false}));
  metrics::Registry& reg = metrics::Registry::Global();
  EXPECT_GT(reg.GetCounter("kelpie_quant_fallbacks_total", {}).Value(), 0u);
  EXPECT_EQ(reg.GetCounter("kelpie_quant_sweeps_total", {}).Value(), 0u);
}

}  // namespace
}  // namespace kelpie
