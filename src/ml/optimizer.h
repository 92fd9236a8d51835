#ifndef KELPIE_ML_OPTIMIZER_H_
#define KELPIE_ML_OPTIMIZER_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "math/matrix.h"

namespace kelpie {

/// Per-row Adagrad state for sparse embedding updates. Each parameter keeps
/// an accumulated squared gradient; rows that never receive gradients pay no
/// cost. This is the optimizer the ComplEx/DistMult trainers use (following
/// Lacroix et al.'s canonical-decomposition setup).
class RowAdagrad {
 public:
  RowAdagrad() = default;

  /// Allocates accumulators shaped like `params`.
  RowAdagrad(size_t rows, size_t cols, float learning_rate,
             float epsilon = 1e-8f)
      : accum_(rows, cols), learning_rate_(learning_rate), epsilon_(epsilon) {}

  /// Applies one Adagrad step to `params` row `row` with gradient `grad`.
  void Step(Matrix& params, size_t row, std::span<const float> grad);

  /// Applies a step to an arbitrary parameter span using accumulator row
  /// `row` (used for mimic rows, which live outside the main table).
  void StepSpan(std::span<float> params, size_t row,
                std::span<const float> grad);

  float learning_rate() const { return learning_rate_; }

  /// Scales the effective learning rate (guarded training backs this off
  /// after a divergence). 1.0 is a bitwise no-op.
  void set_lr_scale(float scale) { lr_scale_ = scale; }
  float lr_scale() const { return lr_scale_; }

  /// Accumulator state, exposed so guarded training can snapshot/rewind it
  /// together with the parameters it conditions.
  std::span<float> AccumData() { return accum_.Data(); }

 private:
  Matrix accum_;
  float learning_rate_ = 0.0f;
  float lr_scale_ = 1.0f;
  float epsilon_ = 1e-8f;
};

/// Dense Adam optimizer for a single parameter matrix; used for the ConvE
/// convolution/FC weights and, with a 1-row matrix, for bias vectors.
class DenseAdam {
 public:
  DenseAdam() = default;

  DenseAdam(size_t rows, size_t cols, float learning_rate,
            float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f)
      : m_(rows, cols),
        v_(rows, cols),
        learning_rate_(learning_rate),
        beta1_(beta1),
        beta2_(beta2),
        epsilon_(epsilon) {}

  /// Applies one Adam step. `grad` must have the same total size as the
  /// parameter matrix.
  void Step(Matrix& params, std::span<const float> grad);

  /// Applies one Adam step to a flat parameter span (e.g. a bias vector);
  /// the state matrix must have been sized to match.
  void StepSpan(std::span<float> params, std::span<const float> grad);

  /// See RowAdagrad::set_lr_scale.
  void set_lr_scale(float scale) { lr_scale_ = scale; }
  float lr_scale() const { return lr_scale_; }

  /// Moment state and step counter, exposed for guarded-training
  /// snapshot/rewind (the counter must rewind with the moments or the bias
  /// correction desynchronizes).
  std::span<float> MomentMData() { return m_.Data(); }
  std::span<float> MomentVData() { return v_.Data(); }
  int64_t step_count() const { return t_; }
  void set_step_count(int64_t t) { t_ = t; }

 private:
  Matrix m_;
  Matrix v_;
  float learning_rate_ = 0.0f;
  float lr_scale_ = 1.0f;
  float beta1_ = 0.9f;
  float beta2_ = 0.999f;
  float epsilon_ = 1e-8f;
  int64_t t_ = 0;
};

/// -----------------------------------------------------------------------
/// Sparse optimizer state (DESIGN.md §16).
///
/// The dense optimizers above allocate state for every row of the table
/// they condition, even though one batch (and especially one mimic
/// post-training) touches a handful of rows. SparseRowAdagrad keeps
/// per-row state in an index-keyed map that materializes a row the first
/// time it receives a gradient. A freshly materialized row starts at
/// zeros — exactly the state its dense counterpart holds before the first
/// gradient — and the per-element update replicates the dense StepSpan
/// arithmetic operation for operation, so sparse and dense training
/// produce byte-identical parameters, and touched rows hold byte-identical
/// accumulator values; untouched rows simply have no storage (which is
/// the bit-exact preservation of their all-zeros dense state).
///
/// Because the storage grows as rows are touched, sparse state cannot be
/// exposed to the training guard as stable float spans the way AccumData()
/// is. Instead the sparse optimizer serializes to / restores from a
/// deterministic blob (rows ordered by index), which the guard snapshots,
/// rewinds and checkpoints through the save_sparse/restore_sparse hooks
/// (ml/train_guard.h) and the checkpoint's "sparse" section.
/// -----------------------------------------------------------------------

/// Sparse counterpart of RowAdagrad.
class SparseRowAdagrad {
 public:
  SparseRowAdagrad() = default;

  /// `rows`/`cols` bound the legal row indices and fix the row width; no
  /// accumulator storage is allocated until a row is touched.
  SparseRowAdagrad(size_t rows, size_t cols, float learning_rate,
                   float epsilon = 1e-8f)
      : rows_(rows),
        cols_(cols),
        learning_rate_(learning_rate),
        epsilon_(epsilon) {}

  /// Same step arithmetic as RowAdagrad::Step, against lazily materialized
  /// accumulator storage.
  void Step(Matrix& params, size_t row, std::span<const float> grad);
  void StepSpan(std::span<float> params, size_t row,
                std::span<const float> grad);

  float learning_rate() const { return learning_rate_; }
  void set_lr_scale(float scale) { lr_scale_ = scale; }
  float lr_scale() const { return lr_scale_; }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Rows that have received at least one gradient (== map entries).
  size_t touched_rows() const { return accum_.size(); }

  /// True when every materialized accumulator value is finite (untouched
  /// rows are zero by definition).
  bool AllFinite() const;

  /// Deterministic serialization: shape header + touched rows ordered by
  /// index. Two optimizers holding the same logical state produce the same
  /// bytes regardless of map iteration order or touch history.
  std::string SaveState() const;

  /// Parses and applies a SaveState blob. Validates fully before mutating:
  /// on a malformed blob or a shape mismatch, returns false and leaves the
  /// current state untouched. An empty blob clears all touched rows (the
  /// state of a fresh optimizer).
  bool RestoreState(std::string_view blob);

 private:
  std::span<float> AccumRow(size_t row);

  size_t rows_ = 0;
  size_t cols_ = 0;
  float learning_rate_ = 0.0f;
  float lr_scale_ = 1.0f;
  float epsilon_ = 1e-8f;
  std::unordered_map<size_t, std::vector<float>> accum_;
};

/// Construction-time dispatch between RowAdagrad and SparseRowAdagrad —
/// the seam the model trainers sit on so TrainConfig::sparse_updates flips
/// storage behavior without forking the gradient code. The step arithmetic
/// is identical on both sides; only the guard integration differs (dense
/// exposes an accumulator span, sparse exposes the blob hooks).
class EmbeddingAdagrad {
 public:
  EmbeddingAdagrad() = default;

  EmbeddingAdagrad(bool sparse, size_t rows, size_t cols, float learning_rate,
                   float epsilon = 1e-8f)
      : sparse_(sparse) {
    if (sparse_) {
      sparse_opt_ = SparseRowAdagrad(rows, cols, learning_rate, epsilon);
    } else {
      dense_opt_ = RowAdagrad(rows, cols, learning_rate, epsilon);
    }
  }

  void Step(Matrix& params, size_t row, std::span<const float> grad) {
    if (sparse_) {
      sparse_opt_.Step(params, row, grad);
    } else {
      dense_opt_.Step(params, row, grad);
    }
  }
  void StepSpan(std::span<float> params, size_t row,
                std::span<const float> grad) {
    if (sparse_) {
      sparse_opt_.StepSpan(params, row, grad);
    } else {
      dense_opt_.StepSpan(params, row, grad);
    }
  }

  void set_lr_scale(float scale) {
    if (sparse_) {
      sparse_opt_.set_lr_scale(scale);
    } else {
      dense_opt_.set_lr_scale(scale);
    }
  }

  bool sparse() const { return sparse_; }

  /// Dense accumulator span for GuardedTrainHooks::params. Empty in sparse
  /// mode — sparse state travels through the blob hooks instead.
  std::span<float> DenseAccumData() {
    return sparse_ ? std::span<float>{} : dense_opt_.AccumData();
  }

  /// Sparse-state guard hooks; trivial in dense mode (empty blob, any
  /// restore of an empty blob succeeds) so trainers can wire them
  /// unconditionally.
  std::string SaveSparseState() const {
    return sparse_ ? sparse_opt_.SaveState() : std::string();
  }
  bool RestoreSparseState(std::string_view blob) {
    return sparse_ ? sparse_opt_.RestoreState(blob) : blob.empty();
  }
  bool SparseFinite() const { return sparse_ ? sparse_opt_.AllFinite() : true; }

  size_t touched_rows() const {
    return sparse_ ? sparse_opt_.touched_rows() : 0;
  }

 private:
  bool sparse_ = false;
  RowAdagrad dense_opt_;
  SparseRowAdagrad sparse_opt_;
};

/// Length-frames several per-optimizer sparse blobs into the single blob a
/// trainer hands the guard (save_sparse hook / checkpoint "sparse"
/// section). A vector of empty blobs composes to a canonical form that
/// SplitSparseBlobs round-trips exactly.
std::string ComposeSparseBlobs(const std::vector<std::string>& blobs);

/// Inverse of ComposeSparseBlobs. Returns false (leaving `out` unspecified)
/// on a malformed frame or when the blob does not hold exactly `expected`
/// parts. An entirely empty input yields `expected` empty parts — the
/// representation of fresh (or dense-mode) optimizer state.
bool SplitSparseBlobs(std::string_view blob, size_t expected,
                      std::vector<std::string>& out);

}  // namespace kelpie

#endif  // KELPIE_ML_OPTIMIZER_H_
