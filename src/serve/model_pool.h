#ifndef KELPIE_SERVE_MODEL_POOL_H_
#define KELPIE_SERVE_MODEL_POOL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/kelpie.h"
#include "models/model.h"

namespace kelpie {
namespace serve {

/// A pool of N independently loaded model instances, each paired with its
/// own Kelpie facade, dispatched round-robin with per-instance locking.
/// Each instance serves one request batch at a time; its extraction threads
/// (RelevanceEngineOptions::num_threads) run inside a lease.
///
/// Every instance is loaded from the same model file, so all N are
/// bitwise-identical parameter sets and every deterministic query returns
/// identical bytes no matter which instance serves it — the property the
/// serving layer's golden tests pin. No result depends on what an instance
/// served before; the shared RelevanceCache, if any, is the only
/// cross-request reuse.
class ModelPool {
 public:
  struct Instance {
    std::unique_ptr<LinkPredictionModel> model;
    std::unique_ptr<Kelpie> kelpie;
    std::mutex mu;
  };

  /// Exclusive RAII hold of one instance; released on destruction. Movable,
  /// not copyable.
  class Lease {
   public:
    Lease(Instance* instance, size_t index)
        : instance_(instance), index_(index) {}
    ~Lease() {
      if (instance_ != nullptr) instance_->mu.unlock();
    }
    Lease(Lease&& other) noexcept
        : instance_(other.instance_), index_(other.index_) {
      other.instance_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Kelpie& kelpie() { return *instance_->kelpie; }
    const LinkPredictionModel& model() const { return *instance_->model; }
    /// Which pool slot this lease holds (for metrics labels and tests).
    size_t index() const { return index_; }

   private:
    Instance* instance_;
    size_t index_;
  };

  /// Loads `pool_size` (>= 1) instances of the model at `model_path` and
  /// wires each to a Kelpie over `dataset`, which must outlive the pool.
  /// Fails if any load fails (checksum, shape, I/O) — a pool with
  /// mismatched instances could answer the same query two ways.
  static Result<std::unique_ptr<ModelPool>> LoadFromFile(
      const std::string& model_path, const Dataset& dataset, size_t pool_size,
      const KelpieOptions& options);

  /// Acquires the next instance round-robin, blocking until its mutex is
  /// free. Round-robin (not shortest-queue) keeps dispatch order
  /// independent of execution timing.
  Lease Acquire();

  size_t size() const { return instances_.size(); }

  ModelPool(const ModelPool&) = delete;
  ModelPool& operator=(const ModelPool&) = delete;

 private:
  ModelPool() = default;

  std::vector<std::unique_ptr<Instance>> instances_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace serve
}  // namespace kelpie

#endif  // KELPIE_SERVE_MODEL_POOL_H_
