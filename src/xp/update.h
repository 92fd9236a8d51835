#ifndef KELPIE_XP_UPDATE_H_
#define KELPIE_XP_UPDATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "common/status.h"
#include "kgraph/dataset.h"
#include "kgraph/triple.h"
#include "models/model.h"

namespace kelpie::xp {

/// -----------------------------------------------------------------------
/// Incremental knowledge-graph updates (DESIGN.md §16).
///
/// A trained model answers queries against a KG snapshot; real graphs
/// drift. `ApplyKgUpdate` ingests a delta (triples added and removed from
/// the training split) and repairs the model without a full retrain: each
/// entity mentioned by the delta gets its embedding row re-fit against its
/// *updated* fact set via PostTrainMimic, warm-started from its current
/// row, with every other parameter frozen — the dynamic-KG analogue of the
/// paper's post-training step, and a bounded first-order maintenance of
/// the embedding.
///
/// Cost: O(params + affected entities' degrees + post-training), not
/// O(graph). Each affected entity's updated fact list is read off the
/// caller's training graph plus the delta
/// (Dataset::ModifiedTrainingFactsOf); no updated Dataset is built, and
/// post-training runs against the caller's dataset, whose entity count is
/// all it reads. The O(params) part is the two ComputeModelFingerprint
/// calls (before and after the commit), each one CRC pass over every
/// parameter byte with no copy.
///
/// Determinism and order-independence: every new row is computed against
/// the ORIGINAL pre-update parameters (rows are staged and committed only
/// after all are computed), and each row's RNG stream is seeded purely
/// from (seed, entity, updated fact set). Affected entities can therefore
/// be processed in any order — or across a crash — and converge to the
/// same bytes.
///
/// Durability: with a journal path, each completed row is appended as one
/// frame of a record file (common/record_file.h, magic KELPIEUD) whose
/// header carries a run id that binds (model parameters, delta, seed). A
/// killed update resumed with the same arguments replays journaled rows
/// byte-identically, up to the first bad frame or misshapen row, and
/// computes only the remainder; the tail after it is dropped, a bad header
/// starts fresh, and a journal from a different run fails with
/// FailedPrecondition rather than silently mixing state.
///
/// Cache contract: mimics depend on the full parameter vector, so any
/// committed row change flips ComputeModelFingerprint and invalidates
/// persistent relevance caches wholesale at their next Open (tier 1,
/// correctness). When parameters are unchanged (e.g. a delta that only
/// removes an entity's last triple leaves its row untouched), affected
/// entities' cache entries are still dead keys — their fact-set hashes can
/// never be queried again — and RelevanceCache::PurgeEntities garbage-
/// collects them (tier 2, hygiene).
/// -----------------------------------------------------------------------

/// A training-split delta: triples to add and triples to drop. Both lists
/// refer to the existing vocabulary — incremental update repairs rows, it
/// does not grow the embedding tables.
struct KgDelta {
  std::vector<Triple> add;
  std::vector<Triple> remove;

  bool empty() const { return add.empty() && remove.empty(); }
};

/// Parses a delta file: one operation per line,
///   add <TAB> head <TAB> relation <TAB> tail
///   remove <TAB> head <TAB> relation <TAB> tail
/// ('+' and '-' are accepted as aliases). Blank lines and lines starting
/// with '#' are skipped. Malformed lines, unknown operations and names
/// outside the dataset's vocabulary fail with InvalidArgument naming the
/// line number; `source` labels the input in error messages.
Result<KgDelta> ParseKgDelta(std::string_view text, const Dataset& dataset,
                             std::string_view source = "<delta>");

/// Sorted, de-duplicated entities mentioned by the delta — the rows an
/// update touches and the keys a cache purge targets.
std::vector<EntityId> AffectedEntities(const KgDelta& delta);

struct UpdateOptions {
  /// Seeds every per-entity post-training RNG stream (mixed with the
  /// entity and its updated fact set, mirroring the relevance engine's
  /// seeding contract). Part of the journal run id.
  uint64_t seed = 7;
  /// Row journal for crash-safe resume; empty = in-memory only.
  std::string journal_path;
  /// Replay completed rows from an existing journal (same model, delta and
  /// seed required — enforced via the run id).
  bool resume = false;
  /// Checked between entities; a cancelled update returns kCancelled with
  /// every completed row already journaled and the model untouched.
  CancelToken cancel;
};

struct UpdateReport {
  size_t triples_added = 0;
  size_t triples_removed = 0;
  /// All entities the delta mentions, ascending.
  std::vector<EntityId> affected;
  /// Affected entities left with no incident training facts; their rows
  /// are (by the warm-init contract) unchanged.
  std::vector<EntityId> isolated;
  /// Rows computed by this invocation.
  size_t rows_recomputed = 0;
  /// Rows replayed byte-identically from the resume journal.
  size_t rows_replayed = 0;
  /// ComputeModelFingerprint(model, seed) before/after the commit; equal
  /// iff no row byte actually changed.
  uint64_t fingerprint_before = 0;
  uint64_t fingerprint_after = 0;
  bool params_changed = false;
};

/// Applies `delta` to `model` in place, as described above. Validates the
/// delta first (removed triples must exist in the training split, added
/// ones must not, and the two lists must be internally duplicate-free);
/// nothing is mutated on any error path. The caller owns persistence of
/// the updated model (SaveModel) and the dataset rewrite
/// (Dataset::WithModifiedTraining), which this call does not build.
Result<UpdateReport> ApplyKgUpdate(LinkPredictionModel& model,
                                   const Dataset& dataset,
                                   const KgDelta& delta,
                                   const UpdateOptions& options);

}  // namespace kelpie::xp

#endif  // KELPIE_XP_UPDATE_H_
