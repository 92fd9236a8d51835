#ifndef KELPIE_XP_JOURNAL_H_
#define KELPIE_XP_JOURNAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/record_file.h"
#include "common/result.h"
#include "common/status.h"
#include "kgraph/triple.h"

namespace kelpie {

/// Per-prediction progress of an end-to-end experiment run, as persisted in
/// the journal: everything needed to reconstruct the prediction's
/// explanation without re-running the (expensive) extraction.
struct PredictionRecord {
  Triple prediction;
  /// Explanation facts (X*).
  std::vector<Triple> facts;
  /// Conversion set (sufficient scenario; empty for necessary).
  std::vector<EntityId> conversion_set;
  double relevance = 0.0;
  bool accepted = false;
  uint64_t post_trainings = 0;
  uint64_t visited_candidates = 0;
  /// Numeric value of the extraction's kelpie::Completeness; 0 = complete.
  /// A non-zero value marks a truncated prediction that `--resume
  /// --retry-truncated` may re-extract under larger limits.
  uint64_t completeness = 0;
  uint64_t skipped_candidates = 0;
  uint64_t divergent_candidates = 0;

  bool operator==(const PredictionRecord&) const = default;
};

/// Deterministic per-run aggregate appended as the journal's final frame.
/// It is recomputed from the complete result set each time the
/// run finishes, so an interrupted-and-resumed run converges to the same
/// summary as an uninterrupted one — resuming never double-counts work that
/// was already journaled.
struct RunSummary {
  uint64_t predictions = 0;
  uint64_t accepted = 0;
  /// Predictions whose extraction completeness was not kComplete.
  uint64_t truncated = 0;
  uint64_t post_trainings = 0;
  uint64_t visited_candidates = 0;
  uint64_t skipped_candidates = 0;
  uint64_t divergent_candidates = 0;
  /// Mean relevance over non-divergent (finite) explanations; 0 if none.
  double mean_relevance = 0.0;

  bool operator==(const RunSummary&) const = default;
};

/// Append-only journal of per-prediction progress.
///
/// File layout: a record file (common/record_file.h, magic KELPIEJL) with
/// the run id in its header, one record frame per prediction and, once a
/// run finishes, one summary frame. Appends are flushed record-by-record,
/// so a killed run loses at most the record being written. On resume the
/// records replay up to the first frame that is not ok; the file is
/// rewritten up to the last record, dropping a torn or corrupt tail and a
/// stale summary (exposed as recovered_summary()), so new records append
/// after the last data record and the finished run appends a fresh summary.
/// A header that does not verify is DataLoss.
///
/// The run id is a fingerprint of everything that determines the run's
/// results (scenario, explainer, model, dataset, predictions, seeds — see
/// ComputeRunId in pipeline.cc). Resuming with a mismatched id fails:
/// replaying records from a different configuration would silently
/// produce wrong results.
///
/// The end-to-end loop (RunEndToEnd in pipeline.h) always runs against a
/// journal; an unjournaled run opens one with an empty path, which has no
/// file, recovers nothing and ignores appends.
class RunJournal {
 public:
  /// Opens `path` for appending. With `resume` false the file is created
  /// fresh (an existing journal is discarded). With `resume` true an
  /// existing file is validated against `run_id` and its complete records
  /// become `recovered()`; a missing file starts an empty journal. An empty
  /// `path` opens a journal without a file.
  static Result<RunJournal> Open(const std::string& path, uint64_t run_id,
                                 bool resume);

  /// Appends one record and flushes it to the file (no-op without a file).
  Status Append(const PredictionRecord& record);

  /// Appends the run summary frame and flushes it (no-op without a file).
  Status AppendSummary(const RunSummary& summary);

  /// Records recovered from a resumed journal, in append order.
  const std::vector<PredictionRecord>& recovered() const {
    return recovered_;
  }

  /// The summary frame recovered from a resumed journal, if the previous
  /// run finished and wrote one. The frame itself has already been dropped
  /// from the file (see class comment).
  const std::optional<RunSummary>& recovered_summary() const {
    return recovered_summary_;
  }

  /// A journal without a file, as Open("") returns.
  RunJournal() = default;
  RunJournal(RunJournal&&) = default;
  RunJournal& operator=(RunJournal&&) = default;

 private:
  bool has_file_ = false;
  record_file::Appender out_;
  std::vector<PredictionRecord> recovered_;
  std::optional<RunSummary> recovered_summary_;
};

}  // namespace kelpie

#endif  // KELPIE_XP_JOURNAL_H_
