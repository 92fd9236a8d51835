#ifndef KELPIE_ML_CHECKPOINT_H_
#define KELPIE_ML_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "math/rng.h"
#include "ml/train_guard.h"

namespace kelpie {

/// -----------------------------------------------------------------------
/// Crash-safe training checkpoints.
///
/// A checkpoint captures everything that determines a guarded training
/// run's future at an epoch-commit boundary: every parameter span the
/// trainer exposes (embedding tables AND optimizer accumulators/moments —
/// at a commit boundary this equals the divergence-rewind snapshot, so one
/// section persists both), the non-float optimizer counters (Adam step
/// counts), the sparse optimizer blob (touched-row Adagrad/Adam state when
/// TrainConfig::sparse_updates is on), the RNG stream position, the epoch
/// counter and the full recovery ledger (lr_scale, remaining recovery
/// budget, recorded events).
/// Resuming from it therefore converges to final parameters bitwise
/// identical to an uninterrupted run — the same guarantee class as the
/// experiment journal's replay.
///
/// Durability discipline: one record file (common/record_file.h, magic
/// KELPCKP1, the config fingerprint in its header, one frame per section),
/// written through WriteFileAtomic — a crash at any point leaves the
/// previous checkpoint intact or the new one complete, never a torn mix.
/// Reads degrade, never error: a bad header or any frame that is not ok is
/// kCorrupt, a stale config fingerprint (kResume only) is kStaleConfig, and
/// both restart training from scratch (or from the last good checkpoint
/// the atomic write preserved) with a warning.
///
/// Failpoints (see failpoint.h), mirroring the relevance cache's
/// corruption matrix:
///   "checkpoint.partial_write" — the serialized image is truncated
///       mid-section before the (still atomic) write; simulates a crash
///       while serializing state.
///   "checkpoint.bit_flip"     — one byte of the params section payload is
///       flipped before the write; simulates silent media corruption.
///   "checkpoint.stale_config" — the stored (on save) or expected (on
///       load) fingerprint is XOR-perturbed; simulates resuming against a
///       checkpoint from a different model/config/dataset/seed.
/// -----------------------------------------------------------------------

/// How restored state is applied by the guard.
enum class CheckpointMode : uint8_t {
  /// Full resume: parameters, counters, RNG, epoch counter and recovery
  /// ledger are restored and training continues at the next epoch. The
  /// config fingerprint must match. Checkpoints keep being written.
  kResume = 0,
  /// Warm start: only parameters and optimizer counters are restored; the
  /// epoch counter, RNG and ledger start fresh, so a (typically shorter)
  /// post-training schedule runs on top of the base state. Deliberately
  /// crosses configs/datasets, so the fingerprint is not checked — shape
  /// agreement (verified by the guard) is the only gate. Load-only: warm
  /// runs never overwrite the base checkpoint.
  kWarmStart = 1,
};

struct CheckpointOptions {
  /// Directory holding `train.ckpt`; created on the first save.
  std::string directory;
  /// Persist every N committed epochs (>= 1). Recoveries, cancellation and
  /// completion always checkpoint regardless of the interval.
  size_t interval_epochs = 1;
  /// Attempt to restore on guard entry. False = start from scratch but
  /// still write checkpoints (a fresh `--checkpoint DIR` run).
  bool resume = false;
  CheckpointMode mode = CheckpointMode::kResume;
  /// Fingerprint of the training setup (model kind, TrainConfig, dataset,
  /// seed — see ComputeTrainFingerprint in models/model_store.h). A
  /// mismatch on kResume restore degrades to scratch.
  uint64_t fingerprint = 0;
};

/// Why the last TryRestore produced (or did not produce) state; surfaced on
/// the CLI and asserted by the corruption-matrix tests.
enum class CheckpointRestoreOutcome : uint8_t {
  kNotAttempted = 0,  ///< resume not requested
  kNoFile,            ///< nothing on disk — scratch
  kRestored,          ///< full state loaded
  kCorrupt,           ///< DataLoss (torn/flipped/partial) — scratch
  kStaleConfig,       ///< fingerprint mismatch — scratch
  kShapeMismatch,     ///< parameter spans disagree — scratch
};

/// Stable human-readable name ("Restored", "StaleConfig", ...).
std::string_view CheckpointRestoreOutcomeName(CheckpointRestoreOutcome o);

/// Everything RunGuardedEpochs needs to continue a run, as captured at an
/// epoch-commit boundary.
struct CheckpointState {
  /// First epoch the resumed run executes (== committed epochs so far).
  uint64_t next_epoch = 0;
  /// Learning-rate scale in effect (after any divergence backoffs).
  float lr_scale = 1.0f;
  /// Remaining rewind-and-retry budget.
  int64_t recoveries_left = 0;
  /// Running report, including the recovery event ledger.
  TrainReport report;
  /// RNG stream position right after the last committed epoch.
  RngState rng;
  /// Non-float optimizer counters (GuardedTrainHooks::save_counters).
  std::vector<uint64_t> counters;
  /// One entry per hooks.params() span, same order and sizes.
  std::vector<std::vector<float>> params;
  /// Opaque sparse optimizer blob (GuardedTrainHooks::save_sparse); empty
  /// for dense-only trainers.
  std::string sparse;
};

/// Serializer/deserializer for one training run's checkpoint file. Owned by
/// the caller (CLI, xp pipeline) and handed to Train() via TrainControl;
/// the guard drives TryRestore/Save at the right boundaries.
class TrainCheckpointer {
 public:
  explicit TrainCheckpointer(CheckpointOptions options);

  const CheckpointOptions& options() const { return options_; }
  /// `<directory>/train.ckpt`.
  std::string FilePath() const;

  /// Loads and validates the checkpoint file. Returns std::nullopt — never
  /// an error — when resume was not requested, the file is missing, any
  /// section fails its CRC or bounds (torn tail, bit flip, partial
  /// section), or the fingerprint is stale; the outcome is recorded for
  /// last_restore_outcome() and a warning is logged for the degradations.
  std::optional<CheckpointState> TryRestore();

  /// True when the guard should persist after `completed_epochs` commits
  /// (interval boundary). Recovery/cancel/final saves bypass this.
  bool ShouldSave(uint64_t completed_epochs) const;

  /// Warm starts are load-only; everything else persists.
  bool saves_enabled() const {
    return options_.mode == CheckpointMode::kResume;
  }

  /// Serializes `state` and writes it atomically. A failed save costs
  /// durability, not the run: callers log the status and keep training.
  Status Save(const CheckpointState& state);

  CheckpointRestoreOutcome last_restore_outcome() const { return outcome_; }
  /// next_epoch of the restored state (0 unless outcome is kRestored).
  uint64_t restored_epoch() const { return restored_epoch_; }

  /// The guard reports a span-shape disagreement between restored state and
  /// the live trainer (degrades to scratch).
  void NoteShapeMismatch() {
    outcome_ = CheckpointRestoreOutcome::kShapeMismatch;
    restored_epoch_ = 0;
  }

 private:
  CheckpointOptions options_;
  CheckpointRestoreOutcome outcome_ = CheckpointRestoreOutcome::kNotAttempted;
  uint64_t restored_epoch_ = 0;
};

}  // namespace kelpie

#endif  // KELPIE_ML_CHECKPOINT_H_
