#include "xp/pipeline.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "eval/ranking.h"
#include "ml/checkpoint.h"

namespace kelpie {

namespace {

/// Per-prediction progress counter. Deterministic class: the xp loop is
/// sequential, and replay/fresh attribution depends only on the journal
/// contents, not on any schedule.
metrics::Counter& PredictionCounter(const char* scenario,
                                    const char* source) {
  return metrics::Registry::Global().GetCounter(
      "kelpie_xp_predictions_total",
      {{"scenario", scenario}, {"source", source}},
      metrics::Determinism::kDeterministic,
      "Predictions processed by scenario and whether the explanation was "
      "freshly extracted or replayed from the journal.");
}

/// The run summary is recomputed from the *complete* explanation set every
/// time the run finishes — replayed and fresh explanations contribute
/// identically, so resuming never double-counts journaled work.
RunSummary SummaryOfExplanations(
    const std::vector<Explanation>& explanations) {
  RunSummary s;
  s.predictions = explanations.size();
  double total_relevance = 0.0;
  uint64_t finite = 0;
  for (const Explanation& x : explanations) {
    if (x.accepted) ++s.accepted;
    if (x.completeness != Completeness::kComplete) ++s.truncated;
    s.post_trainings += x.post_trainings;
    s.visited_candidates += x.visited_candidates;
    s.skipped_candidates += x.skipped_candidates;
    s.divergent_candidates += x.divergent_candidates;
    if (std::isfinite(x.relevance)) {
      total_relevance += x.relevance;
      ++finite;
    }
  }
  if (finite > 0) {
    s.mean_relevance = total_relevance / static_cast<double>(finite);
  }
  return s;
}

/// Fingerprint of everything that determines a journaled run's results.
/// Two runs with the same fingerprint replay each other's journals; any
/// difference (scenario, explainer, model, dataset, predictions, seeds,
/// warm start) makes resume refuse. The explainer's other options stay
/// outside: `kelpie xp` fixes them.
uint64_t ComputeRunId(std::string_view scenario, std::string_view explainer,
                      ModelKind kind, const Dataset& dataset,
                      const std::vector<Triple>& predictions,
                      PredictionTarget target, uint64_t retrain_seed,
                      size_t conversion_set_size, uint64_t conversion_seed,
                      const RetrainOptions& retrain) {
  std::string s(scenario);
  s += '|';
  s += ModelKindName(kind);
  s += '|';
  s += dataset.name();
  s += '|';
  s += std::to_string(static_cast<int>(target));
  s += '|';
  s += std::to_string(retrain_seed);
  s += '|';
  s += std::to_string(conversion_set_size);
  s += '|';
  s += std::to_string(conversion_seed);
  // Appended only when warm start is on: cold runs keep the ids their
  // journals were written with.
  if (!retrain.warm_start_checkpoint.empty()) {
    s += "|warm:";
    s += retrain.warm_start_checkpoint;
    s += ':';
    s += std::to_string(retrain.warm_epochs);
  }
  // Likewise only for frameworks other than Kelpie, so journals written by
  // `kelpie xp` keep their ids.
  if (explainer != "Kelpie") {
    s += "|explainer:";
    s += explainer;
  }
  uint64_t id = Crc32c(s);
  for (const Triple& p : predictions) {
    id = Mix64(id ^ p.Key());
  }
  return id;
}

/// Rebuilds the Explanation a journal record captured. `seconds` is zero by
/// construction — runs do not preserve wall-clock timings, so replayed and
/// freshly extracted explanations compare byte-identical.
Explanation RecordToExplanation(const PredictionRecord& record,
                                ExplanationKind kind) {
  Explanation x;
  x.kind = kind;
  x.facts = record.facts;
  x.relevance = record.relevance;
  x.accepted = record.accepted;
  x.post_trainings = record.post_trainings;
  x.visited_candidates = record.visited_candidates;
  x.completeness = static_cast<Completeness>(record.completeness);
  x.skipped_candidates = record.skipped_candidates;
  x.divergent_candidates = record.divergent_candidates;
  return x;
}

/// The journal record of a freshly extracted explanation. `seconds` is not
/// captured: the run loop zeroes it so replayed and fresh explanations
/// compare byte-identical.
PredictionRecord ExplanationToRecord(const Triple& prediction,
                                     const Explanation& x) {
  PredictionRecord record;
  record.prediction = prediction;
  record.facts = x.facts;
  record.relevance = x.relevance;
  record.accepted = x.accepted;
  record.post_trainings = x.post_trainings;
  record.visited_candidates = x.visited_candidates;
  record.completeness = static_cast<uint64_t>(x.completeness);
  record.skipped_candidates = x.skipped_candidates;
  record.divergent_candidates = x.divergent_candidates;
  return record;
}

/// A record is final when its extraction ran to the natural end; anything
/// else is a truncation that --retry-truncated may upgrade.
bool RecordComplete(const PredictionRecord& record) {
  return record.completeness ==
         static_cast<uint64_t>(Completeness::kComplete);
}

/// Run-level interrupt check between predictions. Every journaled record is
/// already flushed, so stopping here loses nothing.
Status CheckRunInterrupt(const RunControl& control, size_t done,
                         size_t total) {
  const std::string progress =
      std::to_string(done) + "/" + std::to_string(total) +
      " predictions journaled; resume with --resume to continue";
  if (control.cancel.cancelled()) {
    return Status::Cancelled("run cancelled: " + progress);
  }
  if (control.deadline.Expired()) {
    return Status::DeadlineExceeded("run deadline expired: " + progress);
  }
  return Status::Ok();
}

Status CheckRecordedPrediction(const PredictionRecord& record,
                               const Triple& expected, size_t index) {
  if (!(record.prediction == expected)) {
    return Status::FailedPrecondition(
        "journal record " + std::to_string(index) +
        " does not match prediction " + std::to_string(index) +
        " of this run");
  }
  return Status::Ok();
}

}  // namespace

std::vector<Triple> SampleCorrectPredictions(
    const LinkPredictionModel& model, const Dataset& dataset, size_t count,
    PredictionTarget target, Rng& rng) {
  const std::vector<Triple>& test = dataset.test();
  std::vector<size_t> order(test.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<Triple> out;
  for (size_t idx : order) {
    if (out.size() >= count) break;
    const Triple& fact = test[idx];
    if (dataset.train_graph().Degree(SourceEntity(fact, target)) == 0) {
      continue;
    }
    if (FilteredRank(model, dataset, fact, target) == 1) {
      out.push_back(fact);
    }
  }
  return out;
}

std::vector<Triple> SampleCorrectTailPredictions(
    const LinkPredictionModel& model, const Dataset& dataset, size_t count,
    Rng& rng) {
  return SampleCorrectPredictions(model, dataset, count,
                                  PredictionTarget::kTail, rng);
}

LpMetrics RetrainAndMeasure(ModelKind kind, const Dataset& dataset,
                            const std::vector<Triple>& predictions,
                            const std::vector<Triple>& removed,
                            const std::vector<Triple>& added,
                            PredictionTarget target, uint64_t retrain_seed,
                            const RetrainOptions& retrain) {
  trace::Span span("xp.retrain");
  metrics::Registry::Global()
      .GetCounter("kelpie_xp_retrains_total", {},
                  metrics::Determinism::kDeterministic,
                  "Full model retrainings for end-to-end verification.")
      .Increment();
  Dataset modified = dataset.WithModifiedTraining(removed, added);
  TrainConfig config = DefaultConfig(kind, modified);
  const bool warm = !retrain.warm_start_checkpoint.empty();
  if (warm && retrain.warm_epochs > 0) config.epochs = retrain.warm_epochs;
  std::unique_ptr<LinkPredictionModel> model =
      CreateModel(kind, modified, config);
  Rng rng(retrain_seed);
  if (warm) {
    CheckpointOptions ckpt_options;
    ckpt_options.directory = retrain.warm_start_checkpoint;
    ckpt_options.resume = true;
    ckpt_options.mode = CheckpointMode::kWarmStart;
    TrainCheckpointer checkpointer(ckpt_options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    model->Train(modified, rng, control);
  } else {
    model->Train(modified, rng);
  }
  MetricsAccumulator acc;
  for (const Triple& p : predictions) {
    acc.AddRank(FilteredRank(*model, modified, p, target));
  }
  return LpMetrics{acc.HitsAt(1), acc.Mrr()};
}

LpMetrics RetrainAndMeasureTails(ModelKind kind, const Dataset& dataset,
                                 const std::vector<Triple>& predictions,
                                 const std::vector<Triple>& removed,
                                 const std::vector<Triple>& added,
                                 uint64_t retrain_seed) {
  return RetrainAndMeasure(kind, dataset, predictions, removed, added,
                           PredictionTarget::kTail, retrain_seed);
}

std::vector<Triple> ConversionPredictions(
    const std::vector<Triple>& predictions,
    const std::vector<std::vector<EntityId>>& conversion_sets,
    PredictionTarget target) {
  KELPIE_CHECK(predictions.size() == conversion_sets.size());
  std::vector<Triple> out;
  for (size_t i = 0; i < predictions.size(); ++i) {
    for (EntityId c : conversion_sets[i]) {
      Triple converted = predictions[i];
      if (target == PredictionTarget::kTail) {
        converted.head = c;
      } else {
        converted.tail = c;
      }
      out.push_back(converted);
    }
  }
  return out;
}

std::vector<Triple> TransferredFacts(
    const std::vector<Triple>& predictions,
    const std::vector<Explanation>& explanations,
    const std::vector<std::vector<EntityId>>& conversion_sets,
    PredictionTarget target) {
  KELPIE_CHECK(predictions.size() == explanations.size());
  KELPIE_CHECK(predictions.size() == conversion_sets.size());
  std::vector<Triple> out;
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < predictions.size(); ++i) {
    const EntityId source = SourceEntity(predictions[i], target);
    for (EntityId c : conversion_sets[i]) {
      for (const Triple& fact : explanations[i].facts) {
        Triple transferred = TransferFact(fact, source, c);
        if (seen.insert(transferred.Key()).second) {
          out.push_back(transferred);
        }
      }
    }
  }
  return out;
}

Result<EndToEndResult> RunEndToEnd(
    Explainer& explainer, const LinkPredictionModel& original_model,
    ModelKind kind, const Dataset& dataset,
    const std::vector<Triple>& predictions, ExplanationKind scenario,
    size_t conversion_set_size, uint64_t conversion_seed,
    uint64_t retrain_seed, PredictionTarget target,
    const RunControl& control) {
  const bool sufficient = scenario == ExplanationKind::kSufficient;
  const char* name = sufficient ? "sufficient" : "necessary";
  if (!sufficient) {
    conversion_set_size = 0;
    conversion_seed = 0;
  }
  trace::Span run_span(sufficient ? "xp.sufficient" : "xp.necessary");
  const uint64_t run_id = ComputeRunId(
      name, explainer.Name(), kind, dataset, predictions, target,
      retrain_seed, conversion_set_size, conversion_seed, control.retrain);
  RunJournal journal;
  KELPIE_ASSIGN_OR_RETURN(
      journal, RunJournal::Open(control.journal_path, run_id, control.resume));
  if (journal.recovered().size() > predictions.size()) {
    return Status::FailedPrecondition(
        "journal has more records than this run has predictions");
  }
  // Copy before any reopen: the journal's own vector dies with it.
  const std::vector<PredictionRecord> recovered = journal.recovered();
  const bool rewrite =
      control.retry_truncated &&
      std::any_of(recovered.begin(), recovered.end(),
                  [](const PredictionRecord& r) { return !RecordComplete(r); });
  if (rewrite) {
    // Truncated records get re-extracted under the explainer's current
    // limits; complete ones are re-appended byte-identically, so the
    // journal is rewritten in place rather than appended to.
    KELPIE_ASSIGN_OR_RETURN(
        journal,
        RunJournal::Open(control.journal_path, run_id, /*resume=*/false));
    KELPIE_LOG(Info) << "retrying truncated predictions of " << name
                     << " run (" << recovered.size() << " journaled)";
  } else if (!recovered.empty()) {
    KELPIE_LOG(Info) << "resuming " << name << " run: " << recovered.size()
                     << "/" << predictions.size() << " predictions journaled";
  }

  EndToEndResult result;
  for (size_t i = 0; i < predictions.size(); ++i) {
    trace::Span pred_span("xp.prediction");
    const bool replay =
        i < recovered.size() && (!rewrite || RecordComplete(recovered[i]));
    if (i < recovered.size()) {
      KELPIE_RETURN_IF_ERROR(
          CheckRecordedPrediction(recovered[i], predictions[i], i));
    }
    PredictionCounter(name, replay ? "replayed" : "fresh").Increment();
    if (replay) {
      const PredictionRecord& record = recovered[i];
      if (rewrite) {
        KELPIE_RETURN_IF_ERROR(journal.Append(record));
      }
      result.conversion_sets.push_back(record.conversion_set);
      result.explanations.push_back(RecordToExplanation(record, scenario));
      continue;
    }
    KELPIE_RETURN_IF_ERROR(CheckRunInterrupt(control, i, predictions.size()));
    std::vector<EntityId> conversion_set;
    Explanation x;
    if (sufficient) {
      // Per-prediction conversion stream: a pure function of the seed, the
      // prediction and its index, independent of how many predictions ran
      // before — the property that makes resumed draws match fresh ones
      // (and retried truncated extractions reuse the exact set they were
      // first given).
      Rng conversion_rng(
          Mix64(Mix64(conversion_seed ^ predictions[i].Key()) ^ i));
      conversion_set = SampleConversionEntities(
          original_model, dataset, predictions[i], target,
          conversion_set_size, conversion_rng);
      x = explainer.ExplainSufficient(predictions[i], target, conversion_set);
    } else {
      x = explainer.ExplainNecessary(predictions[i], target);
    }
    x.seconds = 0.0;
    PredictionRecord record = ExplanationToRecord(predictions[i], x);
    record.conversion_set = conversion_set;
    {
      trace::Span append_span("xp.journal.append");
      KELPIE_RETURN_IF_ERROR(journal.Append(record));
    }
    result.conversion_sets.push_back(std::move(conversion_set));
    result.explanations.push_back(std::move(x));
    if (failpoint::Fire("pipeline.interrupt", i)) {
      return Status::Aborted("injected interrupt after prediction " +
                             std::to_string(i));
    }
  }
  KELPIE_RETURN_IF_ERROR(
      CheckRunInterrupt(control, predictions.size(), predictions.size()));

  // Necessary: remove the explanations' facts and measure P. Sufficient:
  // add their transfer onto the conversion sets and measure P_C.
  std::vector<Triple> measured, removed, added;
  if (sufficient) {
    measured =
        ConversionPredictions(predictions, result.conversion_sets, target);
    added = TransferredFacts(predictions, result.explanations,
                             result.conversion_sets, target);
  } else {
    measured = predictions;
    std::unordered_set<uint64_t> seen;
    for (const Explanation& x : result.explanations) {
      for (const Triple& fact : x.facts) {
        if (seen.insert(fact.Key()).second) removed.push_back(fact);
      }
    }
  }
  MetricsAccumulator before;
  for (const Triple& p : measured) {
    before.AddRank(FilteredRank(original_model, dataset, p, target));
  }
  result.before = LpMetrics{before.HitsAt(1), before.Mrr()};
  result.after = RetrainAndMeasure(kind, dataset, measured, removed, added,
                                   target, retrain_seed, control.retrain);
  KELPIE_RETURN_IF_ERROR(
      journal.AppendSummary(SummaryOfExplanations(result.explanations)));
  return result;
}

std::vector<std::vector<Triple>> SubsampleExplanations(
    const std::vector<Explanation>& explanations, Rng& rng) {
  std::vector<std::vector<Triple>> out;
  out.reserve(explanations.size());
  for (const Explanation& x : explanations) {
    std::vector<Triple> kept = x.facts;
    if (kept.size() <= 1) {
      // Length-1 explanations are minimal by definition; sub-sampling them
      // yields the null explanation (paper footnote 7).
      kept.clear();
    } else {
      size_t remove_count = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(kept.size()) - 1));
      rng.Shuffle(kept);
      kept.resize(kept.size() - remove_count);
    }
    out.push_back(std::move(kept));
  }
  return out;
}

double EffectivenessLoss(double full_delta, double sub_delta) {
  if (full_delta == 0.0) return 0.0;
  return (sub_delta - full_delta) / full_delta;
}

}  // namespace kelpie
