#include "serve/model_pool.h"

#include <utility>

#include "models/model_store.h"

namespace kelpie {
namespace serve {

Result<std::unique_ptr<ModelPool>> ModelPool::LoadFromFile(
    const std::string& model_path, const Dataset& dataset, size_t pool_size,
    const KelpieOptions& options) {
  if (pool_size == 0) {
    return Status::InvalidArgument("model pool size must be >= 1");
  }
  auto pool = std::unique_ptr<ModelPool>(new ModelPool());
  pool->instances_.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    Result<std::unique_ptr<LinkPredictionModel>> model = LoadModel(model_path);
    if (!model.ok()) return model.status();
    KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, dataset));
    auto instance = std::make_unique<Instance>();
    instance->model = std::move(model).value();
    instance->kelpie =
        std::make_unique<Kelpie>(*instance->model, dataset, options);
    pool->instances_.push_back(std::move(instance));
  }
  return pool;
}

ModelPool::Lease ModelPool::Acquire() {
  const size_t index = static_cast<size_t>(
      next_.fetch_add(1, std::memory_order_relaxed) % instances_.size());
  Instance* instance = instances_[index].get();
  instance->mu.lock();
  return Lease(instance, index);
}

}  // namespace serve
}  // namespace kelpie
