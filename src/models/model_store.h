#ifndef KELPIE_MODELS_MODEL_STORE_H_
#define KELPIE_MODELS_MODEL_STORE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "models/factory.h"

namespace kelpie {

/// File-level model persistence. The file is a record file
/// (common/record_file.h, magic KELPIEMD) of two frames: the architecture
/// kind, entity/relation counts and full TrainConfig (so a loaded model can
/// be post-trained with the exact hyperparameters it was trained with —
/// which is what the Relevance Engine's fidelity depends on), then the raw
/// parameters. Writes are atomic (temp + fsync + rename), so a crash
/// mid-save leaves the previous file intact.

/// Writes `model` to `path`, overwriting atomically.
Status SaveModel(const LinkPredictionModel& model, ModelKind kind,
                 const std::string& path);

/// Reconstructs a model from `path`. The returned model is ready for
/// scoring, explanation extraction and post-training. A file that is not a
/// model file (bad magic or version) is InvalidArgument; a corrupt header
/// or any frame that is not ok (truncation, bit flips, torn writes) is
/// DataLoss.
Result<std::unique_ptr<LinkPredictionModel>> LoadModel(
    const std::string& path);

/// InvalidArgument unless `model` has exactly `dataset`'s entity and
/// relation counts. Every caller that pairs a loaded model with a dataset
/// checks this first: ids of a larger vocabulary index past the model's
/// tables.
Status CheckModelMatchesDataset(const LinkPredictionModel& model,
                                const Dataset& dataset);

/// Fingerprint of a training setup: the architecture, every TrainConfig
/// field (serialized exactly as SaveModel stores it, epochs included), the
/// dataset shape and train split contents, and the training seed. Two runs
/// with equal fingerprints and the same binary produce bitwise-identical
/// parameters, which is what makes resuming a training checkpoint
/// (ml/checkpoint.h) safe: a stale fingerprint means the checkpointed
/// trajectory belongs to a different run and must be discarded.
uint64_t ComputeTrainFingerprint(ModelKind kind, const TrainConfig& config,
                                 const Dataset& dataset, uint64_t seed);

}  // namespace kelpie

#endif  // KELPIE_MODELS_MODEL_STORE_H_
