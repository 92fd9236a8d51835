#include "models/model_store.h"

#include <sstream>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/record_file.h"
#include "ml/serialization.h"
#include "models/complex.h"
#include "models/conve.h"
#include "models/distmult.h"
#include "models/rotate.h"
#include "models/transe.h"

namespace kelpie {

namespace {

/// v3: the common record-file layout. The header binds nothing
/// (fingerprint 0); earlier versions are not read.
constexpr record_file::Format kFormat{"KELPIEMD", 3};
/// Kind name, entity/relation counts and the full TrainConfig.
constexpr uint8_t kMetaFrame = 1;
/// The model's own SaveParameters bytes.
constexpr uint8_t kParametersFrame = 2;
constexpr uint8_t kFrameOrder[] = {kMetaFrame, kParametersFrame};

Status WriteConfig(std::ostream& out, const TrainConfig& c) {
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.dim));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.epochs));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.batch_size));
  std::vector<float> floats{
      c.learning_rate,  c.regularization, c.margin,
      static_cast<float>(c.negatives_per_positive),
      c.conv_lr,        c.label_smoothing, c.input_dropout,
      c.feature_dropout, c.hidden_dropout, c.post_training_lr,
      c.lr_backoff,     c.grad_clip_norm};
  KELPIE_RETURN_IF_ERROR(WriteFloats(out, floats));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.conv_channels));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.conv_kernel));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.reshape_height));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.post_training_epochs));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.check_finite ? 1 : 0));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, c.recover_on_divergence ? 1 : 0));
  return WriteU64(out, static_cast<uint64_t>(c.max_recoveries));
}

Status ReadConfig(std::istream& in, TrainConfig& c) {
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.dim = v;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.epochs = v;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.batch_size = v;
  std::vector<float> floats;
  KELPIE_RETURN_IF_ERROR(ReadFloats(in, floats, 64));
  if (floats.size() != 12) {
    return Status::InvalidArgument("bad config float block");
  }
  c.learning_rate = floats[0];
  c.regularization = floats[1];
  c.margin = floats[2];
  c.negatives_per_positive = static_cast<int>(floats[3]);
  c.conv_lr = floats[4];
  c.label_smoothing = floats[5];
  c.input_dropout = floats[6];
  c.feature_dropout = floats[7];
  c.hidden_dropout = floats[8];
  c.post_training_lr = floats[9];
  c.lr_backoff = floats[10];
  c.grad_clip_norm = floats[11];
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.conv_channels = v;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.conv_kernel = v;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.reshape_height = v;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.post_training_epochs = v;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.check_finite = (v != 0);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.recover_on_divergence = (v != 0);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  c.max_recoveries = static_cast<int>(v);
  return Status::Ok();
}

}  // namespace

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

Status SaveModel(const LinkPredictionModel& model, ModelKind kind,
                 const std::string& path) {
  std::ostringstream meta;
  KELPIE_RETURN_IF_ERROR(WriteString(meta, ModelKindName(kind)));
  KELPIE_RETURN_IF_ERROR(WriteU64(meta, model.num_entities()));
  KELPIE_RETURN_IF_ERROR(WriteU64(meta, model.num_relations()));
  KELPIE_RETURN_IF_ERROR(WriteConfig(meta, model.config()));
  std::ostringstream params;
  KELPIE_RETURN_IF_ERROR(model.SaveParameters(params));
  if (!meta || !params) {
    return Status::Internal("model serialization failed");
  }
  std::string image = record_file::Header(kFormat, 0);
  image.reserve(image.size() + 2 * record_file::kFrameOverhead +
                meta.view().size() + params.view().size());
  record_file::AppendFrame(image, kMetaFrame, meta.view());
  record_file::AppendFrame(image, kParametersFrame, params.view());
  return WriteFileAtomic(path, image);
}

Status CheckModelMatchesDataset(const LinkPredictionModel& model,
                                const Dataset& dataset) {
  if (model.num_entities() == dataset.num_entities() &&
      model.num_relations() == dataset.num_relations()) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "model/dataset vocabulary mismatch: model has " +
      std::to_string(model.num_entities()) + " entities / " +
      std::to_string(model.num_relations()) + " relations, dataset '" +
      dataset.name() + "' has " + std::to_string(dataset.num_entities()) +
      " / " + std::to_string(dataset.num_relations()));
}

Result<std::unique_ptr<LinkPredictionModel>> LoadModel(
    const std::string& path) {
  KELPIE_ASSIGN_OR_RETURN(record_file::Reader reader,
                          record_file::Reader::Open(path, kFormat));
  switch (reader.header()) {
    case record_file::HeaderOutcome::kOk:
      break;
    case record_file::HeaderOutcome::kBadMagic:
      return Status::InvalidArgument("not a kelpie model file: " + path);
    case record_file::HeaderOutcome::kBadVersion:
      return Status::InvalidArgument("unsupported model file version: " +
                                     path);
    case record_file::HeaderOutcome::kCorrupt:
      return Status::DataLoss("model file header corrupt: " + path);
  }
  Result<std::vector<std::string_view>> frames =
      reader.ReadSequence(kFrameOrder);
  if (!frames.ok()) {
    return Status::DataLoss("model file " + path + ": " +
                            frames.status().message());
  }

  std::istringstream meta{std::string((*frames)[0])};
  std::string kind_name;
  KELPIE_RETURN_IF_ERROR(ReadString(meta, kind_name));
  ModelKind kind;
  KELPIE_ASSIGN_OR_RETURN(kind, ParseModelKind(kind_name));
  uint64_t num_entities = 0, num_relations = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(meta, num_entities));
  KELPIE_RETURN_IF_ERROR(ReadU64(meta, num_relations));
  TrainConfig config;
  KELPIE_RETURN_IF_ERROR(ReadConfig(meta, config));
  // A checksum-valid file can still describe shapes the constructors would
  // abort on; reject those as data errors instead.
  KELPIE_RETURN_IF_ERROR(ValidateConfig(kind, config));
  std::unique_ptr<LinkPredictionModel> model =
      CreateModelWithSizes(kind, num_entities, num_relations, config);
  if (model == nullptr) {
    return Status::Internal("model construction failed");
  }
  std::istringstream params{std::string((*frames)[1])};
  KELPIE_RETURN_IF_ERROR(model->LoadParameters(params));
  return model;
}

uint64_t ComputeTrainFingerprint(ModelKind kind, const TrainConfig& config,
                                 const Dataset& dataset, uint64_t seed) {
  std::ostringstream out;
  Status s = WriteString(out, ModelKindName(kind));
  if (s.ok()) s = WriteU64(out, dataset.num_entities());
  if (s.ok()) s = WriteU64(out, dataset.num_relations());
  if (s.ok()) s = WriteU64(out, seed);
  if (s.ok()) s = WriteConfig(out, config);
  // In-memory serialization of a fixed-shape struct cannot fail.
  KELPIE_CHECK(s.ok());
  const uint32_t crc_setup = Crc32c(std::move(out).str());
  uint32_t crc_triples = 0;
  for (const Triple& t : dataset.train()) {
    const uint64_t key[3] = {static_cast<uint64_t>(t.head),
                             static_cast<uint64_t>(t.relation),
                             static_cast<uint64_t>(t.tail)};
    crc_triples = Crc32cExtend(crc_triples, key, sizeof(key));
  }
  return (static_cast<uint64_t>(crc_setup) << 32) | crc_triples;
}

}  // namespace kelpie
