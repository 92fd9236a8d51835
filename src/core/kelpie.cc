#include "core/kelpie.h"

#include "common/trace.h"

namespace kelpie {

namespace {

/// Materializes the control bundle of one extraction call. The WorkBudget
/// lives on the caller's stack (`budget_storage`): each extraction gets a
/// fresh meter, so `limits.work_budget` bounds every call independently.
ExtractionControl MakeControl(const ExtractionLimits& limits,
                              WorkBudget& budget_storage) {
  ExtractionControl control;
  if (limits.work_budget > 0) {
    budget_storage.Reset(limits.work_budget);
    control.budget = &budget_storage;
  }
  Deadline deadline = limits.deadline;
  if (limits.timeout_seconds > 0.0) {
    deadline =
        Deadline::Earliest(deadline, Deadline::After(limits.timeout_seconds));
  }
  control.deadline = deadline;
  control.cancel = limits.cancel;
  return control;
}

}  // namespace

Kelpie::Kelpie(const LinkPredictionModel& model, const Dataset& dataset,
               KelpieOptions options)
    : options_(options),
      prefilter_(dataset, options.prefilter),
      engine_(model, dataset, options.engine),
      builder_(engine_, prefilter_, options.builder) {}

Explanation Kelpie::ExplainNecessary(const Triple& prediction,
                                     PredictionTarget target,
                                     const CandidateObserver& observer,
                                     const ExtractionLimits& limits) {
  trace::Span span("kelpie.explain_necessary");
  WorkBudget budget;
  const ExtractionControl control = MakeControl(limits, budget);
  return builder_.BuildNecessary(prediction, target, observer, control);
}

Explanation Kelpie::ExplainSufficient(const Triple& prediction,
                                      PredictionTarget target,
                                      std::vector<EntityId>* conversion_set_out,
                                      const CandidateObserver& observer,
                                      const ExtractionLimits& limits) {
  Rng rng(engine_.options().seed);
  std::vector<EntityId> conversion_set =
      engine_.SampleConversionSet(prediction, target, rng);
  if (conversion_set_out != nullptr) {
    *conversion_set_out = conversion_set;
  }
  return ExplainSufficientWithSet(prediction, target, conversion_set,
                                  observer, limits);
}

Explanation Kelpie::ExplainSufficientWithSet(
    const Triple& prediction, PredictionTarget target,
    const std::vector<EntityId>& conversion_set,
    const CandidateObserver& observer, const ExtractionLimits& limits) {
  trace::Span span("kelpie.explain_sufficient");
  WorkBudget budget;
  const ExtractionControl control = MakeControl(limits, budget);
  return builder_.BuildSufficient(prediction, target, conversion_set,
                                  observer, control);
}

}  // namespace kelpie
