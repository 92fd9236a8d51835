// Registry semantics (counters, gauges, histograms, labels, masking,
// scoped isolation) plus the golden determinism contract: the masked text
// exposition of a fixed-seed train + extract + eval workload is
// byte-identical at num_threads = 1 and num_threads = 4.
#include "common/metrics.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/explainer.h"
#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "tests/test_util.h"
#include "xp/pipeline.h"

namespace kelpie {
namespace metrics {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Registry reg;
  Counter& c = reg.GetCounter("kelpie_apples_total");
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, SameNameAndLabelsResolveToSameSeries) {
  Registry reg;
  Counter& a = reg.GetCounter("kelpie_apples_total", {{"color", "red"}});
  Counter& b = reg.GetCounter("kelpie_apples_total", {{"color", "red"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.GetCounter("kelpie_apples_total", {{"color", "green"}});
  EXPECT_NE(&a, &other);
}

TEST(CounterTest, LabelOrderIsCanonicalized) {
  Registry reg;
  Counter& a =
      reg.GetCounter("kelpie_x_total", {{"b", "2"}, {"a", "1"}});
  Counter& b =
      reg.GetCounter("kelpie_x_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
}

TEST(GaugeTest, LastWriteWins) {
  Registry reg;
  Gauge& g = reg.GetGauge("kelpie_level");
  g.Set(1.5);
  g.Set(-3.25);
  EXPECT_EQ(g.Value(), -3.25);
}

TEST(HistogramTest, LeBucketSemantics) {
  Registry reg;
  Histogram& h = reg.GetHistogram("kelpie_size", {1.0, 2.0, 4.0});
  // Prometheus `le`: a value lands in the first bucket whose bound is >= it.
  h.Observe(0.5);   // le=1
  h.Observe(1.0);   // le=1 (inclusive)
  h.Observe(1.5);   // le=2
  h.Observe(4.0);   // le=4 (inclusive)
  h.Observe(100.0); // +Inf
  h.Observe(-7.0);  // le=1 (below range falls in the first bucket)
  EXPECT_EQ(h.BucketCount(0), 3u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // +Inf
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0 - 7.0);
}

TEST(HistogramTest, FirstRegistrationFixesBounds) {
  Registry reg;
  Histogram& a = reg.GetHistogram("kelpie_size", {1.0, 2.0});
  Histogram& b = reg.GetHistogram("kelpie_size", {99.0}, {{"k", "v"}});
  EXPECT_EQ(a.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(b.bounds(), a.bounds());  // later bounds are ignored
}

TEST(BucketHelpersTest, ExponentialAndLinearLadders) {
  EXPECT_EQ(ExponentialBuckets(0.5, 2.0, 4),
            (std::vector<double>{0.5, 1.0, 2.0, 4.0}));
  EXPECT_EQ(LinearBuckets(1.0, 1.5, 3),
            (std::vector<double>{1.0, 2.5, 4.0}));
}

TEST(FormatDoubleTest, CanonicalSpellings) {
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "NaN");
}

TEST(TextExpositionTest, DeterministicFormat) {
  Registry reg;
  // Created out of name order on purpose: exposition sorts families.
  reg.GetGauge("kelpie_level", {}, Determinism::kDeterministic).Set(1.5);
  reg.GetCounter("kelpie_apples_total", {{"color", "red"}},
                 Determinism::kDeterministic, "Apples seen.")
      .Increment(3);
  reg.GetCounter("kelpie_apples_total", {{"color", "green"}},
                 Determinism::kDeterministic)
      .Increment(1);
  Histogram& h = reg.GetHistogram("kelpie_size", {1.0, 2.0}, {},
                                  Determinism::kDeterministic);
  h.Observe(0.5);
  h.Observe(3.0);
  EXPECT_EQ(reg.TextExposition(),
            "# HELP kelpie_apples_total Apples seen.\n"
            "# TYPE kelpie_apples_total counter\n"
            "kelpie_apples_total{color=\"green\"} 1\n"
            "kelpie_apples_total{color=\"red\"} 3\n"
            "# TYPE kelpie_level gauge\n"
            "kelpie_level 1.5\n"
            "# TYPE kelpie_size histogram\n"
            "kelpie_size_bucket{le=\"1\"} 1\n"
            "kelpie_size_bucket{le=\"2\"} 1\n"
            "kelpie_size_bucket{le=\"+Inf\"} 2\n"
            "kelpie_size_sum 3.5\n"
            "kelpie_size_count 2\n");
}

TEST(TextExpositionTest, LabelValuesAreEscaped) {
  Registry reg;
  reg.GetCounter("kelpie_x_total", {{"k", "a\"b\\c\nd"}},
                 Determinism::kDeterministic)
      .Increment();
  EXPECT_EQ(reg.TextExposition(),
            "# TYPE kelpie_x_total counter\n"
            "kelpie_x_total{k=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(MaskingTest, WallClockValuesMaskedButSeriesListed) {
  Registry reg;
  reg.GetCounter("kelpie_det_total", {}, Determinism::kDeterministic)
      .Increment(7);
  reg.GetCounter("kelpie_wall_total", {{"event", "hit"}},
                 Determinism::kWallClock)
      .Increment(9);
  Histogram& h = reg.GetHistogram("kelpie_wall_seconds", {1.0}, {},
                                  Determinism::kWallClock);
  h.Observe(0.5);
  EXPECT_EQ(reg.TextExposition(/*mask_wall_clock=*/true),
            "# TYPE kelpie_det_total counter\n"
            "kelpie_det_total 7\n"
            "# TYPE kelpie_wall_seconds histogram\n"
            "kelpie_wall_seconds_bucket{le=\"1\"} MASKED\n"
            "kelpie_wall_seconds_bucket{le=\"+Inf\"} MASKED\n"
            "kelpie_wall_seconds_sum MASKED\n"
            "kelpie_wall_seconds_count MASKED\n"
            "# TYPE kelpie_wall_total counter\n"
            "kelpie_wall_total{event=\"hit\"} MASKED\n");
}

TEST(JsonSnapshotTest, ShapeMaskingAndNonFiniteValues) {
  Registry reg;
  reg.GetCounter("kelpie_det_total", {}, Determinism::kDeterministic)
      .Increment(7);
  reg.GetGauge("kelpie_wall_level", {}, Determinism::kWallClock)
      .Set(std::numeric_limits<double>::infinity());
  const std::string unmasked = reg.JsonSnapshot();
  // Non-finite doubles are not valid JSON numbers and render as strings.
  EXPECT_NE(unmasked.find("\"value\":\"+Inf\""), std::string::npos);
  EXPECT_NE(unmasked.find("\"determinism\":\"deterministic\""),
            std::string::npos);
  EXPECT_NE(unmasked.find("\"determinism\":\"wall_clock\""),
            std::string::npos);
  const std::string masked = reg.JsonSnapshot(/*mask_wall_clock=*/true);
  EXPECT_NE(masked.find("\"value\":\"MASKED\""), std::string::npos);
  EXPECT_NE(masked.find("\"value\":7"), std::string::npos);
}

TEST(CounterFamilyTotalTest, SumsAllSeriesOfTheFamily) {
  Registry reg;
  reg.GetCounter("kelpie_work_total", {{"kind", "a"}}).Increment(3);
  reg.GetCounter("kelpie_work_total", {{"kind", "b"}}).Increment(4);
  reg.GetGauge("kelpie_level").Set(99.0);
  EXPECT_EQ(reg.CounterFamilyTotal("kelpie_work_total"), 7u);
  EXPECT_EQ(reg.CounterFamilyTotal("kelpie_missing_total"), 0u);
  EXPECT_EQ(reg.CounterFamilyTotal("kelpie_level"), 0u);  // not a counter
}

TEST(ScopedRegistryTest, CapturesAndRestores) {
  Counter& outer = Registry::Global().GetCounter("kelpie_scope_probe_total");
  const uint64_t before = outer.Value();
  {
    ScopedRegistry scoped;
    EXPECT_EQ(&Registry::Global(), &scoped.registry());
    Registry::Global().GetCounter("kelpie_scope_probe_total").Increment(5);
    EXPECT_EQ(scoped.registry().CounterFamilyTotal("kelpie_scope_probe_total"),
              5u);
  }
  // Increments inside the scope never reach the process registry.
  EXPECT_EQ(outer.Value(), before);
  EXPECT_NE(&Registry::Global(),
            static_cast<Registry*>(nullptr));  // restored and usable
}

TEST(ScopedRegistryTest, NestsLikeAStack) {
  ScopedRegistry a;
  Registry* a_ptr = &a.registry();
  {
    ScopedRegistry b;
    EXPECT_EQ(&Registry::Global(), &b.registry());
  }
  EXPECT_EQ(&Registry::Global(), a_ptr);
}

TEST(ConcurrencyTest, RelaxedIncrementsAndObservationsAreExact) {
  Registry reg;
  Counter& c = reg.GetCounter("kelpie_concurrent_total");
  Histogram& h = reg.GetHistogram("kelpie_concurrent_seconds", {2.0});
  constexpr size_t kIters = 4000;
  ThreadPool pool(4);
  ParallelFor(&pool, kIters, [&](size_t) {
    c.Increment();
    h.Observe(1.0);
  });
  EXPECT_EQ(c.Value(), kIters);
  EXPECT_EQ(h.Count(), kIters);
  EXPECT_EQ(h.BucketCount(0), kIters);
  // 1.0 added kIters times is exact in double arithmetic.
  EXPECT_DOUBLE_EQ(h.Sum(), static_cast<double>(kIters));
}

// ---------------------------------------------------------------------------
// Golden determinism contract (DESIGN §10): masked snapshots of the same
// seeded workload are byte-identical across thread counts. Deterministic
// families must agree exactly; wall-clock families are masked, but their
// series lists still compare — handles are resolved on schedule-invariant
// paths, so presence cannot depend on the schedule either.
// ---------------------------------------------------------------------------

std::string MaskedSnapshotAtThreads(size_t threads) {
  ScopedRegistry scoped;
  // Everything below instruments against the scoped registry. Training is
  // single-threaded by contract, so its metrics are identical by
  // construction; extraction and evaluation run with `threads` workers.
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kComplEx, dataset);

  KelpieOptions options;
  options.engine.num_threads = threads;
  options.builder.max_visits_per_size = 10;
  KelpieExplainer explainer(*model, dataset, options);

  Rng rng(3);
  std::vector<Triple> predictions =
      SampleCorrectTailPredictions(*model, dataset, 2, rng);
  EXPECT_FALSE(predictions.empty());
  for (const Triple& p : predictions) {
    explainer.ExplainNecessary(p, PredictionTarget::kTail);
  }
  if (!predictions.empty()) {
    std::vector<EntityId> conversion_set = SampleConversionEntities(
        *model, dataset, predictions[0], PredictionTarget::kTail, 3, rng);
    if (!conversion_set.empty()) {
      explainer.ExplainSufficient(predictions[0], PredictionTarget::kTail,
                                  conversion_set);
    }
  }

  EvalOptions eval;
  eval.num_threads = threads;
  EvaluateTest(*model, dataset, eval);

  return Registry::Global().TextExposition(/*mask_wall_clock=*/true);
}

TEST(GoldenSnapshotTest, MaskedExpositionByteIdenticalAcrossThreadCounts) {
  const std::string sequential = MaskedSnapshotAtThreads(1);
  const std::string parallel = MaskedSnapshotAtThreads(4);

  // Guard against a vacuously-equal comparison: the workload must actually
  // have populated the instrumented families.
  for (const char* family :
       {"kelpie_train_epochs_total", "kelpie_engine_post_trainings_total",
        "kelpie_builder_candidates_total", "kelpie_eval_ranks_total"}) {
    EXPECT_NE(sequential.find(family), std::string::npos) << family;
  }
  // Schedule-dependent raw counters are masked...
  EXPECT_NE(sequential.find("kelpie_engine_post_trainings_total"
                            "{kind=\"homologous\"} MASKED"),
            std::string::npos);
  // ...while replay-committed ones carry real values.
  EXPECT_EQ(sequential.find("kelpie_builder_candidates_total{kind=\"necessary"
                            "\",outcome=\"visited\",stage=\"1\"} MASKED"),
            std::string::npos);

  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace metrics
}  // namespace kelpie
