// Parameterized consistency and gradient checks that every model must pass:
// the Kelpie Relevance Engine and both baselines rely on these contracts.
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "math/simd.h"
#include "models/conve.h"
#include "models/factory.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

/// The descriptor's kernel applied to one row, before any bias: the value
/// a sweep with this descriptor writes for that row when it has no bias.
float KernelValue(const CandidateSweep& sweep, std::span<const float> row) {
  return sweep.kernel == CandidateSweep::Kernel::kDot
             ? simd::Dot(row, sweep.query)
             : -std::sqrt(simd::SquaredDistance(row, sweep.query));
}

/// The full per-row value of a sweep for stored entity `e`: the kernel,
/// then the entity's bias (dot models that have one).
float RowValue(const CandidateSweep& sweep, std::span<const float> row,
               EntityId e) {
  float value = KernelValue(sweep, row);
  if (!sweep.bias.empty()) value += sweep.bias[static_cast<size_t>(e)];
  return value;
}

class ModelContractTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
    model_ = testing_util::TrainToyModel(GetParam(), *dataset_, 17);
    probe_ = dataset_->test().front();
    // A vector that is no stored row: a blend of the probe's two entities.
    std::span<const float> h = model_->EntityEmbedding(probe_.head);
    std::span<const float> t = model_->EntityEmbedding(probe_.tail);
    blend_.resize(h.size());
    for (size_t i = 0; i < h.size(); ++i) {
      blend_[i] = 0.75f * h[i] + 0.25f * t[i];
    }
  }

  EntityId num_entities() const {
    return static_cast<EntityId>(model_->num_entities());
  }
  std::vector<float> Scores() const {
    return std::vector<float>(model_->num_entities());
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<LinkPredictionModel> model_;
  Triple probe_;
  std::vector<float> blend_;
};

TEST_P(ModelContractTest, ScoreAllTailsMatchesScore) {
  std::vector<float> scores = Scores();
  model_->ScoreAllTails(probe_.head, probe_.relation, scores);
  for (EntityId e = 0; e < num_entities(); ++e) {
    Triple t(probe_.head, probe_.relation, e);
    EXPECT_EQ(Bits(scores[static_cast<size_t>(e)]), Bits(model_->Score(t)))
        << "tail " << e;
  }
}

TEST_P(ModelContractTest, ScoreAllHeadsMatchesScore) {
  std::vector<float> scores = Scores();
  model_->ScoreAllHeads(probe_.relation, probe_.tail, scores);
  if (GetParam() == ModelKind::kConvE) {
    // ConvE ranks heads through the reciprocal query φ(t, r_inv, e), as in
    // its training protocol: its head sweep is that query's tail sweep.
    const auto& conve = dynamic_cast<const ConvE&>(*model_);
    const RelationId inverse = conve.ReciprocalOf(probe_.relation);
    for (EntityId e = 0; e < num_entities(); ++e) {
      Triple t(probe_.tail, inverse, e);
      EXPECT_EQ(Bits(scores[static_cast<size_t>(e)]), Bits(model_->Score(t)))
          << "head " << e;
    }
    return;
  }
  // The head composite applies the relation to the tail instead of the
  // head, so it equals Score in exact arithmetic but may round differently.
  for (EntityId e = 0; e < num_entities(); ++e) {
    Triple t(e, probe_.relation, probe_.tail);
    EXPECT_NEAR(scores[static_cast<size_t>(e)], model_->Score(t), 1e-4)
        << "head " << e;
  }
}

TEST_P(ModelContractTest, HeadScoresMatchOverrideWithStoredTailRow) {
  std::vector<float> direct = Scores();
  model_->ScoreAllHeads(probe_.relation, probe_.tail, direct);
  std::vector<float> via_override = Scores();
  model_->ScoreAllHeadsWithTailVec(
      probe_.relation, model_->EntityEmbedding(probe_.tail), via_override);
  for (size_t e = 0; e < direct.size(); ++e) {
    EXPECT_EQ(Bits(via_override[e]), Bits(direct[e])) << "head " << e;
  }
}

TEST_P(ModelContractTest, OverrideWithStoredRowReproducesScores) {
  std::span<const float> row = model_->EntityEmbedding(probe_.head);
  std::vector<float> via_override = Scores();
  model_->ScoreAllTailsWithHeadVec(row, probe_.relation, via_override);
  std::vector<float> direct = Scores();
  model_->ScoreAllTails(probe_.head, probe_.relation, direct);
  for (size_t e = 0; e < direct.size(); ++e) {
    EXPECT_EQ(Bits(via_override[e]), Bits(direct[e])) << "tail " << e;
  }
}

TEST_P(ModelContractTest, TailSweepMatchesPerRowDescriptorValue) {
  std::optional<CandidateSweep> sweep =
      model_->TailSweepWithHeadVec(blend_, probe_.relation);
  ASSERT_TRUE(sweep.has_value());
  ASSERT_EQ(sweep->query.size(), model_->entity_dim());
  std::vector<float> scores = Scores();
  model_->ScoreAllTailsWithHeadVec(blend_, probe_.relation, scores);
  for (EntityId e = 0; e < num_entities(); ++e) {
    EXPECT_EQ(Bits(scores[static_cast<size_t>(e)]),
              Bits(RowValue(*sweep, model_->EntityEmbedding(e), e)))
        << "tail " << e;
  }
}

TEST_P(ModelContractTest, HeadSweepMatchesPerRowDescriptorValue) {
  std::optional<CandidateSweep> sweep =
      model_->HeadSweepWithTailVec(probe_.relation, blend_);
  ASSERT_TRUE(sweep.has_value());
  ASSERT_EQ(sweep->query.size(), model_->entity_dim());
  std::vector<float> scores = Scores();
  model_->ScoreAllHeadsWithTailVec(probe_.relation, blend_, scores);
  for (EntityId e = 0; e < num_entities(); ++e) {
    EXPECT_EQ(Bits(scores[static_cast<size_t>(e)]),
              Bits(RowValue(*sweep, model_->EntityEmbedding(e), e)))
        << "head " << e;
  }
}

TEST_P(ModelContractTest, ScoreWithEntityVecUsesOverride) {
  std::span<const float> stored = model_->EntityEmbedding(probe_.head);
  // Stored row reproduces the plain score.
  EXPECT_EQ(Bits(model_->ScoreWithEntityVec(probe_, probe_.head, stored)),
            Bits(model_->Score(probe_)));
  // A zero vector produces a different score (the models are non-trivial).
  std::vector<float> zeros(model_->entity_dim(), 0.0f);
  EXPECT_NE(model_->ScoreWithEntityVec(probe_, probe_.head, zeros),
            model_->Score(probe_));
}

TEST_P(ModelContractTest, OverriddenHeadMatchesTailSweep) {
  const EntityId h = probe_.head;
  std::vector<float> scores = Scores();
  model_->ScoreAllTailsWithHeadVec(blend_, probe_.relation, scores);
  for (EntityId e = 0; e < num_entities(); ++e) {
    if (e == h) continue;  // a self-loop overrides the tail too
    Triple t(h, probe_.relation, e);
    EXPECT_EQ(Bits(model_->ScoreWithEntityVec(t, h, blend_)),
              Bits(scores[static_cast<size_t>(e)]))
        << "tail " << e;
  }
}

TEST_P(ModelContractTest, OverriddenTailGetsKernelValueWithoutBias) {
  const EntityId t = probe_.tail;
  for (EntityId e = 0; e < num_entities(); ++e) {
    if (e == t) continue;  // a self-loop overrides the head too
    std::optional<CandidateSweep> sweep =
        model_->TailSweepWithHeadVec(model_->EntityEmbedding(e),
                                     probe_.relation);
    ASSERT_TRUE(sweep.has_value());
    float expected = KernelValue(*sweep, blend_);
    if (!sweep->bias.empty()) expected += 0.0f;  // the override has no bias
    Triple fact(e, probe_.relation, t);
    EXPECT_EQ(Bits(model_->ScoreWithEntityVec(fact, t, blend_)),
              Bits(expected))
        << "head " << e;
  }
}

TEST(ConvEContractTest, OverriddenTailDropsTheStoredBias) {
  const Dataset dataset = testing_util::MakeToyDataset();
  std::unique_ptr<LinkPredictionModel> model =
      testing_util::TrainToyModel(ModelKind::kConvE, dataset, 17);
  const auto& conve = dynamic_cast<const ConvE&>(*model);
  const Triple probe = dataset.test().front();
  std::optional<CandidateSweep> sweep = model->TailSweepWithHeadVec(
      model->EntityEmbedding(probe.head), probe.relation);
  ASSERT_TRUE(sweep.has_value());
  ASSERT_EQ(sweep->bias.size(), model->num_entities());
  std::span<const float> tail_row = model->EntityEmbedding(probe.tail);
  const float dot = KernelValue(*sweep, tail_row);
  const float bias = conve.entity_bias()[static_cast<size_t>(probe.tail)];
  ASSERT_NE(bias, 0.0f) << "trained bias expected to be non-zero";
  // The stored tail row standing in for itself loses b_t; +0.0f turns a
  // -0.0 dot into +0.0.
  EXPECT_EQ(Bits(model->ScoreWithEntityVec(probe, probe.tail, tail_row)),
            Bits(dot + 0.0f));
  EXPECT_EQ(Bits(model->Score(probe)), Bits(dot + bias));
}

TEST_P(ModelContractTest, SelfLoopOverridesBothSides) {
  const EntityId x = probe_.head;
  const Triple loop(x, probe_.relation, x);
  std::optional<CandidateSweep> sweep =
      model_->TailSweepWithHeadVec(blend_, probe_.relation);
  ASSERT_TRUE(sweep.has_value());
  float expected = KernelValue(*sweep, blend_);
  if (!sweep->bias.empty()) expected += 0.0f;  // the overridden tail
  EXPECT_EQ(Bits(model_->ScoreWithEntityVec(loop, x, blend_)), Bits(expected));
  // With the stored row, the override only drops the bias.
  std::span<const float> stored = model_->EntityEmbedding(x);
  std::optional<CandidateSweep> stored_sweep =
      model_->TailSweepWithHeadVec(stored, probe_.relation);
  ASSERT_TRUE(stored_sweep.has_value());
  float stored_expected = KernelValue(*stored_sweep, stored);
  if (!stored_sweep->bias.empty()) stored_expected += 0.0f;
  EXPECT_EQ(Bits(model_->ScoreWithEntityVec(loop, x, stored)),
            Bits(stored_expected));
}

TEST_P(ModelContractTest, HeadGradientMatchesFiniteDifferences) {
  std::vector<float> grad = model_->ScoreGradWrtHead(probe_);
  ASSERT_EQ(grad.size(), model_->entity_dim());
  std::vector<float> perturbed(model_->EntityEmbedding(probe_.head).begin(),
                               model_->EntityEmbedding(probe_.head).end());
  const float h = 1e-3f;
  for (size_t i = 0; i < perturbed.size(); i += 5) {
    float saved = perturbed[i];
    perturbed[i] = saved + h;
    float up = model_->ScoreWithEntityVec(probe_, probe_.head, perturbed);
    perturbed[i] = saved - h;
    float down = model_->ScoreWithEntityVec(probe_, probe_.head, perturbed);
    perturbed[i] = saved;
    float numeric = (up - down) / (2 * h);
    EXPECT_NEAR(grad[i], numeric, 5e-2) << "component " << i;
  }
}

TEST_P(ModelContractTest, TailGradientMatchesFiniteDifferences) {
  std::vector<float> grad = model_->ScoreGradWrtTail(probe_);
  ASSERT_EQ(grad.size(), model_->entity_dim());
  std::vector<float> perturbed(model_->EntityEmbedding(probe_.tail).begin(),
                               model_->EntityEmbedding(probe_.tail).end());
  const float h = 1e-3f;
  for (size_t i = 0; i < perturbed.size(); i += 5) {
    float saved = perturbed[i];
    perturbed[i] = saved + h;
    float up = model_->ScoreWithEntityVec(probe_, probe_.tail, perturbed);
    perturbed[i] = saved - h;
    float down = model_->ScoreWithEntityVec(probe_, probe_.tail, perturbed);
    perturbed[i] = saved;
    float numeric = (up - down) / (2 * h);
    EXPECT_NEAR(grad[i], numeric, 5e-2) << "component " << i;
  }
}

TEST_P(ModelContractTest, PostTrainedMimicBehavesLikeOriginal) {
  // A homologous mimic trained on the entity's own facts should rank the
  // true tail similarly to the original entity (Section 4.2's key
  // assumption). We check the mimic places the true tail in the top
  // quartile when the original ranks it first or near-first.
  const EntityId h = probe_.head;
  std::vector<Triple> facts = dataset_->train_graph().FactsOf(h);
  Rng rng(23);
  std::vector<float> mimic =
      model_->PostTrainMimic(*dataset_, h, facts, rng);
  ASSERT_EQ(mimic.size(), model_->entity_dim());

  std::vector<float> original_scores(model_->num_entities());
  model_->ScoreAllTails(h, probe_.relation, original_scores);
  std::vector<float> mimic_scores(model_->num_entities());
  model_->ScoreAllTailsWithHeadVec(mimic, probe_.relation, mimic_scores);

  auto rank_of_tail = [&](const std::vector<float>& scores) {
    int rank = 0;
    float target = scores[static_cast<size_t>(probe_.tail)];
    for (float s : scores) {
      if (s >= target) ++rank;
    }
    return rank;
  };
  int original_rank = rank_of_tail(original_scores);
  int mimic_rank = rank_of_tail(mimic_scores);
  if (original_rank <= 3) {
    EXPECT_LE(mimic_rank,
              static_cast<int>(model_->num_entities()) / 4)
        << "mimic diverged from original behaviour";
  }
}

TEST_P(ModelContractTest, PostTrainingIsDeterministicGivenSeed) {
  const EntityId h = probe_.head;
  std::vector<Triple> facts = dataset_->train_graph().FactsOf(h);
  Rng rng1(99), rng2(99);
  std::vector<float> m1 = model_->PostTrainMimic(*dataset_, h, facts, rng1);
  std::vector<float> m2 = model_->PostTrainMimic(*dataset_, h, facts, rng2);
  for (size_t i = 0; i < m1.size(); ++i) {
    EXPECT_FLOAT_EQ(m1[i], m2[i]);
  }
}

TEST_P(ModelContractTest, PostTrainingOnEmptyFactsReturnsInitOnly) {
  Rng rng(7);
  std::vector<float> mimic = model_->PostTrainMimic(*dataset_, 0, {}, rng);
  EXPECT_EQ(mimic.size(), model_->entity_dim());
}

TEST_P(ModelContractTest, DimensionsMatchDataset) {
  EXPECT_EQ(model_->num_entities(), dataset_->num_entities());
  EXPECT_EQ(model_->num_relations(), dataset_->num_relations());
  EXPECT_GT(model_->entity_dim(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelContractTest,
    ::testing::Values(ModelKind::kTransE, ModelKind::kComplEx,
                      ModelKind::kConvE, ModelKind::kDistMult,
                      ModelKind::kRotatE),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

}  // namespace
}  // namespace kelpie
