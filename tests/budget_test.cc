// Bounded extraction: work-unit budgets, deadlines, cancellation, and the
// --retry-truncated upgrade path. The determinism-critical properties are
// (a) budget truncation is thread-count invariant, (b) an unlimited budget
// reproduces the unbounded search bit for bit, (c) cancellation returns the
// best-so-far explanation, (d) retrying truncated journal records under
// larger limits converges to the journal an uninterrupted run would write.
#include "common/budget.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/explainer.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/kelpie.h"
#include "tests/test_util.h"
#include "xp/pipeline.h"

namespace kelpie {
namespace {

// ---------------------------------------------------------------- unit ----

TEST(WorkBudgetTest, ChargesAllOrNothing) {
  WorkBudget budget(5);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_EQ(budget.limit(), 5u);
  EXPECT_TRUE(budget.TryCharge(3));
  EXPECT_EQ(budget.used(), 3u);
  EXPECT_EQ(budget.remaining(), 2u);
  // A charge that does not fit entirely charges nothing.
  EXPECT_FALSE(budget.TryCharge(3));
  EXPECT_EQ(budget.used(), 3u);
  EXPECT_TRUE(budget.TryCharge(2));
  EXPECT_EQ(budget.remaining(), 0u);
  EXPECT_FALSE(budget.TryCharge(1));
}

TEST(WorkBudgetTest, UnlimitedByDefault) {
  WorkBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.TryCharge(1ull << 62));
  EXPECT_TRUE(budget.TryCharge(1ull << 62));
  EXPECT_EQ(budget.remaining(), WorkBudget::kUnlimited);
}

TEST(WorkBudgetTest, ResetReinitializesLimitAndUsage) {
  WorkBudget budget(2);
  EXPECT_TRUE(budget.TryCharge(2));
  EXPECT_FALSE(budget.TryCharge(1));
  budget.Reset(4);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.remaining(), 4u);
  EXPECT_TRUE(budget.TryCharge(4));
}

TEST(WorkBudgetTest, ZeroCapacityChargesNothingButFreeCharges) {
  WorkBudget budget(0);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_EQ(budget.limit(), 0u);
  EXPECT_EQ(budget.remaining(), 0u);
  EXPECT_FALSE(budget.TryCharge(1));
  // A zero-unit charge always fits — even a spent (or empty) budget.
  EXPECT_TRUE(budget.TryCharge(0));
  EXPECT_EQ(budget.used(), 0u);
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e18);
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(DeadlineTest, NonPositiveAfterIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(0.0).Expired());
  EXPECT_TRUE(Deadline::After(-3.0).Expired());
  EXPECT_LE(Deadline::After(0.0).RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, FarFutureIsNotExpired) {
  Deadline d = Deadline::After(3600.0);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 3000.0);
}

TEST(DeadlineTest, EarliestPicksTheSoonerDeadline) {
  EXPECT_TRUE(Deadline::Earliest(Deadline::Infinite(), Deadline::After(0.0))
                  .Expired());
  EXPECT_FALSE(
      Deadline::Earliest(Deadline::Infinite(), Deadline::After(3600.0))
          .Expired());
  EXPECT_TRUE(Deadline::Earliest(Deadline::Infinite(), Deadline::Infinite())
                  .infinite());
}

TEST(DeadlineTest, EarliestWithAlreadyExpiredDeadlineIsExpiredEitherWay) {
  const Deadline expired = Deadline::After(-1.0);
  const Deadline future = Deadline::After(3600.0);
  EXPECT_TRUE(Deadline::Earliest(expired, future).Expired());
  EXPECT_TRUE(Deadline::Earliest(future, expired).Expired());
  // The composed deadline is finite, not saturated.
  EXPECT_FALSE(Deadline::Earliest(expired, future).infinite());
  EXPECT_LE(Deadline::Earliest(expired, future).RemainingSeconds(), 0.0);
}

TEST(CancelTokenTest, CopiesShareOneStickyFlag) {
  CancelToken token;
  CancelToken copy = token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(copy.cancelled());
  copy.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  // A fresh token is independent.
  EXPECT_FALSE(CancelToken().cancelled());
}

// Two signals racing to cancel the same token (e.g. SIGINT and a serve
// shutdown) must both observe a consistent sticky flag.
TEST(CancelTokenTest, ConcurrentRequestCancelFromTwoThreadsIsSticky) {
  for (int round = 0; round < 50; ++round) {
    CancelToken token;
    CancelToken a = token;
    CancelToken b = token;
    std::thread ta([&] { a.RequestCancel(); });
    std::thread tb([&] { b.RequestCancel(); });
    ta.join();
    tb.join();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(a.cancelled());
    EXPECT_TRUE(b.cancelled());
  }
}

TEST(ExtractionControlTest, DefaultImposesNoLimits) {
  ExtractionControl control;
  EXPECT_TRUE(control.CheckInterrupt().ok());
  EXPECT_EQ(control.BudgetRemaining(), WorkBudget::kUnlimited);
  EXPECT_TRUE(control.TryCharge(1ull << 40));
}

TEST(ExtractionControlTest, CancellationBeatsDeadline) {
  ExtractionControl control;
  control.deadline = Deadline::After(0.0);
  EXPECT_EQ(control.CheckInterrupt().code(), StatusCode::kDeadlineExceeded);
  control.cancel.RequestCancel();
  EXPECT_EQ(control.CheckInterrupt().code(), StatusCode::kCancelled);
}

TEST(CompletenessTest, FromStatusAndNames) {
  EXPECT_EQ(CompletenessFromStatus(Status::Ok()), Completeness::kComplete);
  EXPECT_EQ(CompletenessFromStatus(Status::Cancelled("x")),
            Completeness::kCancelled);
  EXPECT_EQ(CompletenessFromStatus(Status::DeadlineExceeded("x")),
            Completeness::kTruncatedDeadline);
  EXPECT_EQ(CompletenessName(Completeness::kComplete), "Complete");
  EXPECT_EQ(CompletenessName(Completeness::kTruncatedBudget),
            "TruncatedBudget");
  EXPECT_EQ(CompletenessName(Completeness::kTruncatedDeadline),
            "TruncatedDeadline");
  EXPECT_EQ(CompletenessName(Completeness::kCancelled), "Cancelled");
}

// --------------------------------------------------------- integration ----

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Shared trained model: extraction tests only read it. The interesting
/// predictions are located_in facts — a city's source-side neighborhood
/// (its born_in facts) gives the builder several candidates, unlike the
/// degree-1 test people.
class BoundedExtractionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing_util::MakeToyDataset());
    model_ = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_)
                 .release();
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }
  void TearDown() override { failpoint::DisarmAll(); }

  static Triple CityPrediction(int j) {
    const Dataset& d = *dataset_;
    int32_t city = d.entities().Find("City_" + std::to_string(j)).value();
    int32_t rel = d.relations().Find("located_in").value();
    int32_t country =
        d.entities().Find("Country_" + std::to_string(j % 3)).value();
    return Triple(city, rel, country);
  }

  /// Everything the parallel-visiting contract promises to keep invariant
  /// across thread counts (post_trainings and seconds may legitimately grow
  /// with speculation).
  static void ExpectSameScheduleInvariantFields(const Explanation& a,
                                                const Explanation& b) {
    EXPECT_EQ(a.facts, b.facts);
    EXPECT_EQ(a.relevance, b.relevance);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.visited_candidates, b.visited_candidates);
    EXPECT_EQ(a.skipped_candidates, b.skipped_candidates);
    EXPECT_EQ(a.divergent_candidates, b.divergent_candidates);
    EXPECT_EQ(a.completeness, b.completeness);
  }

  static Dataset* dataset_;
  static LinkPredictionModel* model_;
};

Dataset* BoundedExtractionTest::dataset_ = nullptr;
LinkPredictionModel* BoundedExtractionTest::model_ = nullptr;

// Acceptance (a): the same work-unit budget truncates at the same candidate
// at every thread count.
TEST_F(BoundedExtractionTest, BudgetTruncationIsThreadCountInvariant) {
  const Triple prediction = CityPrediction(0);
  ExtractionLimits limits;
  limits.work_budget = 2;

  KelpieOptions sequential;
  sequential.engine.num_threads = 1;
  Kelpie kelpie1(*model_, *dataset_, sequential);
  Explanation x1 = kelpie1.ExplainNecessary(prediction,
                                            PredictionTarget::kTail, nullptr,
                                            limits);

  KelpieOptions parallel;
  parallel.engine.num_threads = 4;
  Kelpie kelpie4(*model_, *dataset_, parallel);
  Explanation x4 = kelpie4.ExplainNecessary(prediction,
                                            PredictionTarget::kTail, nullptr,
                                            limits);

  EXPECT_EQ(x1.completeness, Completeness::kTruncatedBudget);
  EXPECT_EQ(x1.visited_candidates, 2u);
  EXPECT_GE(x1.skipped_candidates, 1u);
  EXPECT_FALSE(x1.facts.empty()) << "truncation keeps the best-so-far";
  ExpectSameScheduleInvariantFields(x1, x4);
}

// Acceptance (b): a budget that never binds reproduces the unbounded search
// exactly (only wall-clock may differ).
TEST_F(BoundedExtractionTest, GenerousLimitsMatchUnboundedRunBitForBit) {
  const Triple prediction = CityPrediction(1);
  KelpieOptions options;
  options.engine.num_threads = 1;

  // One instance for both runs: no extraction depends on an earlier one,
  // post_trainings included.
  Kelpie kelpie(*model_, *dataset_, options);
  Explanation unbounded =
      kelpie.ExplainNecessary(prediction, PredictionTarget::kTail);

  ExtractionLimits limits;
  limits.work_budget = 1'000'000;
  limits.timeout_seconds = 3600.0;
  Explanation bounded = kelpie.ExplainNecessary(
      prediction, PredictionTarget::kTail, nullptr, limits);

  ExpectSameScheduleInvariantFields(unbounded, bounded);
  EXPECT_EQ(unbounded.post_trainings, bounded.post_trainings);
  EXPECT_EQ(unbounded.completeness, Completeness::kComplete);
  EXPECT_EQ(unbounded.kind, bounded.kind);
}

// Acceptance (c): cancelling mid-extraction returns kCancelled with the
// best explanation found so far.
TEST_F(BoundedExtractionTest, CancelMidExtractionKeepsBestSoFar) {
  const Triple prediction = CityPrediction(0);
  KelpieOptions options;
  options.engine.num_threads = 1;
  // An unreachable threshold keeps the search alive past S_1, giving the
  // cancellation a boundary to land on.
  options.builder.necessary_threshold = 1e9;
  Kelpie kelpie(*model_, *dataset_, options);

  ExtractionLimits limits;
  size_t observed = 0;
  CandidateObserver cancel_after_first = [&](size_t, double, double) {
    if (++observed == 1) limits.cancel.RequestCancel();
  };
  Explanation x = kelpie.ExplainNecessary(
      prediction, PredictionTarget::kTail, cancel_after_first, limits);

  EXPECT_EQ(x.completeness, Completeness::kCancelled);
  EXPECT_FALSE(x.accepted);
  EXPECT_FALSE(x.facts.empty()) << "cancel must return the best-so-far";
  EXPECT_GE(observed, 1u);
}

TEST_F(BoundedExtractionTest, ExpiredDeadlineTruncatesImmediately) {
  const Triple prediction = CityPrediction(0);
  KelpieOptions options;
  options.engine.num_threads = 1;
  Kelpie kelpie(*model_, *dataset_, options);

  ExtractionLimits limits;
  limits.deadline = Deadline::After(0.0);
  Explanation x = kelpie.ExplainNecessary(prediction,
                                          PredictionTarget::kTail, nullptr,
                                          limits);
  EXPECT_EQ(x.completeness, Completeness::kTruncatedDeadline);
  EXPECT_EQ(x.visited_candidates, 0u);
  EXPECT_GE(x.skipped_candidates, 1u);
  EXPECT_TRUE(x.facts.empty());
}

// A sufficient candidate costs one unit per conversion entity; a budget
// smaller than one candidate's cost evaluates nothing.
TEST_F(BoundedExtractionTest, SufficientCandidatesCostConversionSetUnits) {
  const Triple prediction = CityPrediction(2);
  KelpieOptions options;
  options.engine.num_threads = 1;
  Kelpie kelpie(*model_, *dataset_, options);
  Rng rng(17);
  std::vector<EntityId> conversion_set = SampleConversionEntities(
      *model_, *dataset_, prediction, PredictionTarget::kTail, 3, rng);
  ASSERT_EQ(conversion_set.size(), 3u);

  ExtractionLimits limits;
  limits.work_budget = 3;  // exactly one candidate's worth
  Explanation one = kelpie.ExplainSufficientWithSet(
      prediction, PredictionTarget::kTail, conversion_set, nullptr, limits);
  EXPECT_EQ(one.completeness, Completeness::kTruncatedBudget);
  EXPECT_EQ(one.visited_candidates, 1u);

  limits.work_budget = 2;  // less than one candidate
  Explanation none = kelpie.ExplainSufficientWithSet(
      prediction, PredictionTarget::kTail, conversion_set, nullptr, limits);
  EXPECT_EQ(none.completeness, Completeness::kTruncatedBudget);
  EXPECT_EQ(none.visited_candidates, 0u);
  EXPECT_TRUE(none.facts.empty());
}

// Divergent post-trainings degrade to skip-and-record instead of aborting
// the extraction.
TEST_F(BoundedExtractionTest, DivergentPostTrainingsAreCountedAndSkipped) {
  const Triple prediction = CityPrediction(0);
  KelpieOptions options;
  options.engine.num_threads = 1;
  Kelpie kelpie(*model_, *dataset_, options);

  failpoint::Arm("engine.post_train.diverge", failpoint::kAnyValue,
                 failpoint::kForever);
  Explanation x =
      kelpie.ExplainNecessary(prediction, PredictionTarget::kTail);
  failpoint::DisarmAll();

  // Every candidate diverged: nothing usable, but the search completed and
  // accounted for each divergence.
  EXPECT_EQ(x.completeness, Completeness::kComplete);
  EXPECT_FALSE(x.accepted);
  EXPECT_TRUE(x.facts.empty());
  EXPECT_GT(x.divergent_candidates, 0u);
  EXPECT_EQ(x.divergent_candidates, x.visited_candidates);
}

// ------------------------------------------------------------- metrics ----

/// Sum of one outcome's builder-candidate series across search stages.
/// Reading a stage that never committed resolves a zero series, which is
/// harmless inside a scoped registry.
uint64_t OutcomeTotal(metrics::Registry& reg, const char* kind,
                      const char* outcome) {
  uint64_t total = 0;
  for (int stage = 1; stage <= 10; ++stage) {
    total += reg.GetCounter("kelpie_builder_candidates_total",
                            {{"kind", kind},
                             {"stage", std::to_string(stage)},
                             {"outcome", outcome}})
                 .Value();
  }
  return total;
}

// The builder's deterministic counters are committed from the sequential
// stopping-policy replay, so they must agree exactly with the per-candidate
// ledger the Explanation itself reports — for complete and truncated runs
// alike.
TEST_F(BoundedExtractionTest, BuilderCountersMatchExplanationLedger) {
  metrics::ScopedRegistry scoped;
  KelpieOptions options;
  options.engine.num_threads = 1;
  Kelpie kelpie(*model_, *dataset_, options);
  Explanation x =
      kelpie.ExplainNecessary(CityPrediction(1), PredictionTarget::kTail);
  ASSERT_EQ(x.completeness, Completeness::kComplete);

  metrics::Registry& reg = metrics::Registry::Global();
  EXPECT_EQ(OutcomeTotal(reg, "necessary", "visited"), x.visited_candidates);
  EXPECT_EQ(OutcomeTotal(reg, "necessary", "skipped"), x.skipped_candidates);
  EXPECT_EQ(OutcomeTotal(reg, "necessary", "divergent"),
            x.divergent_candidates);
  EXPECT_EQ(reg.GetCounter("kelpie_builder_extractions_total",
                           {{"kind", "necessary"},
                            {"completeness", "Complete"}})
                .Value(),
            1u);
  // A necessary candidate costs one work unit.
  EXPECT_EQ(reg.GetCounter("kelpie_builder_committed_work_units_total",
                           {{"kind", "necessary"}})
                .Value(),
            x.visited_candidates);
}

TEST_F(BoundedExtractionTest, BudgetTruncationCountersAreExact) {
  metrics::ScopedRegistry scoped;
  KelpieOptions options;
  options.engine.num_threads = 1;
  Kelpie kelpie(*model_, *dataset_, options);
  ExtractionLimits limits;
  limits.work_budget = 2;
  Explanation x = kelpie.ExplainNecessary(
      CityPrediction(0), PredictionTarget::kTail, nullptr, limits);
  ASSERT_EQ(x.completeness, Completeness::kTruncatedBudget);

  metrics::Registry& reg = metrics::Registry::Global();
  // The two budgeted visits both land in S_1; everything else is skipped.
  EXPECT_EQ(reg.GetCounter("kelpie_builder_candidates_total",
                           {{"kind", "necessary"},
                            {"stage", "1"},
                            {"outcome", "visited"}})
                .Value(),
            2u);
  EXPECT_EQ(OutcomeTotal(reg, "necessary", "visited"), x.visited_candidates);
  EXPECT_EQ(OutcomeTotal(reg, "necessary", "skipped"), x.skipped_candidates);
  EXPECT_EQ(reg.GetCounter("kelpie_builder_committed_work_units_total",
                           {{"kind", "necessary"}})
                .Value(),
            2u);
  EXPECT_EQ(reg.GetCounter("kelpie_builder_extractions_total",
                           {{"kind", "necessary"},
                            {"completeness", "TruncatedBudget"}})
                .Value(),
            1u);
}

TEST_F(BoundedExtractionTest, DivergentCandidatesCountedInRegistry) {
  metrics::ScopedRegistry scoped;
  KelpieOptions options;
  options.engine.num_threads = 1;
  Kelpie kelpie(*model_, *dataset_, options);

  failpoint::Arm("engine.post_train.diverge", failpoint::kAnyValue,
                 failpoint::kForever);
  Explanation x =
      kelpie.ExplainNecessary(CityPrediction(0), PredictionTarget::kTail);
  failpoint::DisarmAll();
  ASSERT_GT(x.divergent_candidates, 0u);

  metrics::Registry& reg = metrics::Registry::Global();
  EXPECT_EQ(OutcomeTotal(reg, "necessary", "divergent"),
            x.divergent_candidates);
  // The engine saw at least the baseline divergence.
  EXPECT_GE(reg.CounterFamilyTotal("kelpie_engine_diverged_post_trainings_"
                                   "total"),
            1u);
}

// ------------------------------------------------------------ pipeline ----

class RetryTruncatedTest : public BoundedExtractionTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kelpie_budget_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    // A mix of multi-candidate (city) and single-candidate (person)
    // predictions: under a small budget the city extractions truncate while
    // the person's completes, exercising both retry paths.
    predictions_ = {CityPrediction(0), CityPrediction(1)};
    for (const Triple& t : dataset_->test()) {
      predictions_.push_back(t);
      break;
    }
    ASSERT_EQ(predictions_.size(), 3u);
  }
  void TearDown() override {
    failpoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Journal(const std::string& name) {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  std::vector<Triple> predictions_;
};

// Acceptance (d): --resume --retry-truncated under larger limits converges
// to the byte-identical journal of an uninterrupted unlimited run.
TEST_F(RetryTruncatedTest, UpgradeConvergesToUninterruptedRun) {
  KelpieOptions options;
  options.engine.num_threads = 1;

  // Truncated first pass: 2 work units per prediction.
  KelpieExplainer small(*model_, *dataset_, options);
  ExtractionLimits tight;
  tight.work_budget = 2;
  small.SetExtractionLimits(tight);
  Result<EndToEndResult> truncated = RunEndToEnd(
      small, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl")});
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  size_t incomplete = 0;
  for (const Explanation& x : truncated->explanations) {
    if (x.completeness != Completeness::kComplete) ++incomplete;
  }
  ASSERT_GT(incomplete, 0u) << "budget was expected to truncate";
  ASSERT_LT(incomplete, predictions_.size())
      << "the single-candidate prediction was expected to complete";

  // Reference: an uninterrupted unlimited run.
  KelpieExplainer unlimited(*model_, *dataset_, options);
  Result<EndToEndResult> full = RunEndToEnd(
      unlimited, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("full.jnl")});
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // Upgrade pass: resume the truncated journal with retry under unlimited
  // limits. The explainer that just ran the reference is reused: what it
  // extracted before cannot change what it extracts now.
  RunControl control;
  control.journal_path = Journal("run.jnl");
  control.resume = true;
  control.retry_truncated = true;
  Result<EndToEndResult> retried = RunEndToEnd(
      unlimited, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail, control);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();

  ASSERT_EQ(retried->explanations.size(), full->explanations.size());
  for (size_t i = 0; i < full->explanations.size(); ++i) {
    const Explanation& a = full->explanations[i];
    const Explanation& b = retried->explanations[i];
    EXPECT_EQ(a.facts, b.facts) << "prediction " << i;
    EXPECT_EQ(a.relevance, b.relevance) << "prediction " << i;
    EXPECT_EQ(a.completeness, Completeness::kComplete) << "prediction " << i;
    EXPECT_EQ(b.completeness, Completeness::kComplete) << "prediction " << i;
    EXPECT_EQ(a.post_trainings, b.post_trainings) << "prediction " << i;
  }
  EXPECT_EQ(full->after.hits_at_1, retried->after.hits_at_1);
  EXPECT_EQ(full->after.mrr, retried->after.mrr);
  EXPECT_EQ(ReadAll(Journal("run.jnl")), ReadAll(Journal("full.jnl")))
      << "upgraded journal must be byte-identical to the uninterrupted one";
}

// Without --retry-truncated a resumed run replays truncated records as-is.
TEST_F(RetryTruncatedTest, PlainResumeReplaysTruncatedRecords) {
  KelpieOptions options;
  options.engine.num_threads = 1;
  KelpieExplainer small(*model_, *dataset_, options);
  ExtractionLimits tight;
  tight.work_budget = 2;
  small.SetExtractionLimits(tight);
  Result<EndToEndResult> first = RunEndToEnd(
      small, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl")});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string bytes = ReadAll(Journal("run.jnl"));

  KelpieExplainer unlimited(*model_, *dataset_, options);
  Result<EndToEndResult> resumed = RunEndToEnd(
      unlimited, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl"), .resume = true});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->explanations.size(), first->explanations.size());
  for (size_t i = 0; i < first->explanations.size(); ++i) {
    EXPECT_EQ(first->explanations[i].completeness,
              resumed->explanations[i].completeness);
    EXPECT_EQ(first->explanations[i].facts, resumed->explanations[i].facts);
  }
  EXPECT_EQ(ReadAll(Journal("run.jnl")), bytes)
      << "a plain resume must not rewrite the journal";
}

TEST_F(RetryTruncatedTest, CancelledRunControlStopsBeforeExtracting) {
  KelpieOptions options;
  options.engine.num_threads = 1;
  KelpieExplainer explainer(*model_, *dataset_, options);
  RunControl control;
  control.journal_path = Journal("run.jnl");
  control.cancel.RequestCancel();
  Result<EndToEndResult> result = RunEndToEnd(
      explainer, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail, control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // The journal is valid (header only) and resumable after the cancel.
  Result<EndToEndResult> resumed = RunEndToEnd(
      explainer, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl"), .resume = true});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
}

TEST_F(RetryTruncatedTest, ExpiredRunDeadlineStopsWithDeadlineExceeded) {
  KelpieOptions options;
  options.engine.num_threads = 1;
  KelpieExplainer explainer(*model_, *dataset_, options);
  RunControl control;
  control.journal_path = Journal("run.jnl");
  control.deadline = Deadline::After(0.0);
  Result<EndToEndResult> result = RunEndToEnd(
      explainer, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kSufficient, 2, 5, 7, PredictionTarget::kTail, control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace kelpie
