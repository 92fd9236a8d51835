#ifndef KELPIE_MODELS_FACTORY_H_
#define KELPIE_MODELS_FACTORY_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "models/model.h"

namespace kelpie {

/// The model families exercised by the experiments: the paper's three
/// representatives (geometric, tensor-decomposition, deep learning) plus
/// DistMult as an extra multiplicative model.
enum class ModelKind { kTransE, kComplEx, kConvE, kDistMult, kRotatE };

/// Stable display name ("TransE", ...).
std::string_view ModelKindName(ModelKind kind);

/// Parses a display name back to a kind (case-sensitive).
Result<ModelKind> ParseModelKind(std::string_view name);

/// Per-model hyperparameter defaults, lightly adapted to the dataset size
/// (larger graphs get a few more epochs). These reproduce the training
/// recipes of the paper's Section 5.1 at the reduced scale of the synthetic
/// datasets.
TrainConfig DefaultConfig(ModelKind kind, const Dataset& dataset);

/// Checks user-supplied hyperparameters and the table shapes they give a
/// model of `num_entities` x `num_relations` (dimension divisibility,
/// positive counts, a sane recovery budget, every table within the limits
/// ReadMatrix applies) before construction. The model constructors enforce
/// the structural invariants with KELPIE_CHECK, and an oversized table
/// would abort on allocation; calling this first turns a bad `--dim` on the
/// CLI or a crafted model file into InvalidArgument instead.
Status ValidateConfig(ModelKind kind, const TrainConfig& config,
                      size_t num_entities, size_t num_relations);

/// Instantiates an untrained model from sizes: the one construction switch.
std::unique_ptr<LinkPredictionModel> CreateModelWithSizes(
    ModelKind kind, size_t num_entities, size_t num_relations,
    const TrainConfig& config);

/// Instantiates an untrained model sized for `dataset`.
std::unique_ptr<LinkPredictionModel> CreateModel(ModelKind kind,
                                                 const Dataset& dataset,
                                                 const TrainConfig& config);

/// Convenience: instantiate with default config and train with `seed`.
std::unique_ptr<LinkPredictionModel> CreateAndTrain(ModelKind kind,
                                                    const Dataset& dataset,
                                                    uint64_t seed);

}  // namespace kelpie

#endif  // KELPIE_MODELS_FACTORY_H_
