#include "models/factory.h"

#include "common/logging.h"
#include "ml/serialization.h"
#include "models/complex.h"
#include "models/conve.h"
#include "models/distmult.h"
#include "models/rotate.h"
#include "models/transe.h"

namespace kelpie {

std::string_view ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTransE:
      return "TransE";
    case ModelKind::kComplEx:
      return "ComplEx";
    case ModelKind::kConvE:
      return "ConvE";
    case ModelKind::kDistMult:
      return "DistMult";
    case ModelKind::kRotatE:
      return "RotatE";
  }
  return "Unknown";
}

Result<ModelKind> ParseModelKind(std::string_view name) {
  if (name == "TransE") return ModelKind::kTransE;
  if (name == "ComplEx") return ModelKind::kComplEx;
  if (name == "ConvE") return ModelKind::kConvE;
  if (name == "DistMult") return ModelKind::kDistMult;
  if (name == "RotatE") return ModelKind::kRotatE;
  return Status::InvalidArgument("unknown model kind: " + std::string(name));
}

TrainConfig DefaultConfig(ModelKind kind, const Dataset& dataset) {
  TrainConfig config;
  config.dim = 32;
  // A little extra optimization for larger graphs.
  const bool large = dataset.train().size() > 8000;
  switch (kind) {
    case ModelKind::kTransE:
      config.epochs = large ? 60 : 40;
      config.batch_size = 512;
      config.learning_rate = 0.03f;
      config.margin = 2.0f;
      config.negatives_per_positive = 5;
      config.post_training_epochs = 30;
      config.post_training_lr = 0.05f;
      break;
    case ModelKind::kRotatE:
      config.epochs = large ? 60 : 40;
      config.batch_size = 512;
      config.learning_rate = 0.05f;
      config.margin = 3.0f;
      config.negatives_per_positive = 5;
      config.post_training_epochs = 30;
      config.post_training_lr = 0.05f;
      break;
    case ModelKind::kComplEx:
    case ModelKind::kDistMult:
      config.epochs = large ? 30 : 20;
      config.batch_size = 512;
      config.learning_rate = 0.1f;
      config.regularization = 5e-3f;
      config.post_training_epochs = 25;
      config.post_training_lr = 0.1f;
      break;
    case ModelKind::kConvE:
      config.epochs = large ? 60 : 50;
      config.batch_size = 256;
      config.learning_rate = 0.1f;  // Adagrad, embeddings + biases
      config.conv_lr = 0.01f;       // Adam, conv/FC weights
      config.conv_channels = 8;
      config.conv_kernel = 3;
      config.reshape_height = 4;
      config.label_smoothing = 0.1f;
      config.post_training_epochs = 25;
      config.post_training_lr = 0.1f;
      break;
  }
  return config;
}

Status ValidateConfig(ModelKind kind, const TrainConfig& config,
                      size_t num_entities, size_t num_relations) {
  if (config.dim == 0) {
    return Status::InvalidArgument("dim must be positive");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("batch size must be positive");
  }
  if (config.negatives_per_positive < 1) {
    return Status::InvalidArgument("negatives per positive must be >= 1");
  }
  if ((kind == ModelKind::kComplEx || kind == ModelKind::kRotatE) &&
      config.dim % 2 != 0) {
    return Status::InvalidArgument(
        std::string(ModelKindName(kind)) + " requires an even dim, got " +
        std::to_string(config.dim));
  }
  // ConvE keeps a reciprocal row per relation. Bounding the plain counts
  // first keeps every product below in range.
  if (!MatrixWithinLimits(num_entities, config.dim) ||
      !MatrixWithinLimits(num_relations, config.dim) ||
      (kind == ModelKind::kConvE &&
       !MatrixWithinLimits(2 * num_relations, config.dim))) {
    return Status::InvalidArgument(
        "tables of " + std::to_string(num_entities) + " entities / " +
        std::to_string(num_relations) + " relations at dim " +
        std::to_string(config.dim) + " exceed the matrix limits");
  }
  if (kind == ModelKind::kConvE) {
    if (config.reshape_height == 0 ||
        config.dim % config.reshape_height != 0) {
      return Status::InvalidArgument(
          "ConvE requires dim divisible by reshape_height, got dim=" +
          std::to_string(config.dim) + " reshape_height=" +
          std::to_string(config.reshape_height));
    }
    const size_t image_h = 2 * config.reshape_height;
    const size_t image_w = config.dim / config.reshape_height;
    const size_t kernel = config.conv_kernel;
    if (kernel == 0 || kernel > image_h || kernel > image_w) {
      return Status::InvalidArgument(
          "ConvE conv kernel " + std::to_string(kernel) +
          " does not fit its " + std::to_string(image_h) + "x" +
          std::to_string(image_w) + " image");
    }
    // Conv weights, then the FC layer over the conv output. Once the first
    // fits, channels <= 2^24 and the image has 2 * dim <= 2^25 pixels, so
    // the output size cannot overflow.
    if (!MatrixWithinLimits(config.conv_channels, kernel * kernel) ||
        !MatrixWithinLimits(config.dim, config.conv_channels *
                                            (image_h - kernel + 1) *
                                            (image_w - kernel + 1))) {
      return Status::InvalidArgument(
          "ConvE layers of " + std::to_string(config.conv_channels) +
          " channels exceed the matrix limits");
    }
  }
  if (config.max_recoveries < 0) {
    return Status::InvalidArgument("max recoveries must be >= 0");
  }
  if (config.grad_clip_norm < 0.0f) {
    return Status::InvalidArgument("gradient clip norm must be >= 0");
  }
  return Status::Ok();
}

std::unique_ptr<LinkPredictionModel> CreateModelWithSizes(
    ModelKind kind, size_t num_entities, size_t num_relations,
    const TrainConfig& config) {
  switch (kind) {
    case ModelKind::kTransE:
      return std::make_unique<TransE>(num_entities, num_relations, config);
    case ModelKind::kComplEx:
      return std::make_unique<ComplEx>(num_entities, num_relations, config);
    case ModelKind::kConvE:
      return std::make_unique<ConvE>(num_entities, num_relations, config);
    case ModelKind::kDistMult:
      return std::make_unique<DistMult>(num_entities, num_relations, config);
    case ModelKind::kRotatE:
      return std::make_unique<RotatE>(num_entities, num_relations, config);
  }
  return nullptr;
}

std::unique_ptr<LinkPredictionModel> CreateModel(ModelKind kind,
                                                 const Dataset& dataset,
                                                 const TrainConfig& config) {
  return CreateModelWithSizes(kind, dataset.num_entities(),
                              dataset.num_relations(), config);
}

std::unique_ptr<LinkPredictionModel> CreateAndTrain(ModelKind kind,
                                                    const Dataset& dataset,
                                                    uint64_t seed) {
  auto model = CreateModel(kind, dataset, DefaultConfig(kind, dataset));
  Rng rng(seed);
  Status trained = model->Train(dataset, rng);
  // Default configs are known-stable; a divergence here is a programmer
  // error, not a user-recoverable condition.
  KELPIE_CHECK(trained.ok()) << trained.ToString();
  return model;
}

}  // namespace kelpie
