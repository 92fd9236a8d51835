#ifndef KELPIE_SERVE_SERVER_H_
#define KELPIE_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/kelpie.h"
#include "serve/model_pool.h"
#include "serve/request_queue.h"

namespace kelpie {
namespace serve {

/// -----------------------------------------------------------------------
/// Kelpie-as-a-service: the in-process serving layer (DESIGN.md §12).
///
/// One bounded RequestQueue feeds `pool_size` dispatcher threads. Each
/// dispatcher pops a coalesced batch of requests, acquires a ModelPool
/// lease (round-robin, per-instance lock) and executes the batch on that
/// instance. Admission control is built on the PR 3 budget machinery:
/// per-request admission deadlines, a bounded queue that sheds on
/// overflow, and per-request extraction limits whose truncations surface
/// as `Completeness`-annotated partial results instead of errors.
///
/// Determinism contract: for any request, the response bytes equal what a
/// fresh one-shot process would produce for the same query at any pool
/// size or thread count. Pool instances are loaded from one model file
/// (bitwise-identical parameters); extraction is thread-count-invariant
/// (DESIGN.md §7) and keeps no state between requests; and wall-clock
/// fields are excluded from responses. The golden test in
/// tests/serve_test.cc replays a mixed concurrent workload and
/// byte-compares against sequential execution.
/// -----------------------------------------------------------------------

struct ServerOptions {
  /// Model instances in the pool, and dispatcher threads pulling batches
  /// (concurrent extractions).
  size_t pool_size = 2;
  /// Queued requests beyond this are shed with kUnavailable; 0 = unbounded.
  size_t max_queue_depth = 256;
  /// Most requests coalesced into one batch (one pool lease); 0 = no cap.
  size_t max_batch = 16;
  /// Extraction options for every pooled Kelpie instance;
  /// kelpie.engine.num_threads is the per-extraction worker count *inside*
  /// a lease.
  KelpieOptions kelpie;
  /// Server-wide cooperative cancellation, overlaid on every extraction
  /// (the CLI wires SIGINT/SIGTERM here). Cancelled extractions return
  /// best-so-far results with Completeness::kCancelled.
  CancelToken cancel;
  /// When true the dispatchers start idle and nothing executes until
  /// Resume() — used by tests to fill the queue deterministically and
  /// observe admission control without racing the dispatchers.
  bool start_paused = false;
};

struct ScoreRequest {
  Triple triple;
  /// Shed the request (kDeadlineExceeded) if it has not *started* executing
  /// by this point; infinite by default.
  Deadline admission_deadline;
};

struct ScoreResult {
  Status status;
  float score = 0.0f;
};

struct ExplainRequest {
  Triple prediction;
  PredictionTarget target = PredictionTarget::kTail;
  ExplanationKind kind = ExplanationKind::kNecessary;
  /// Deterministic work-unit budget for this extraction; 0 = unlimited.
  uint64_t work_budget = 0;
  /// Per-request wall-clock extraction timeout; 0 = none. Not reproducible.
  double timeout_seconds = 0.0;
  /// Shed if execution has not started by this point.
  Deadline admission_deadline;
};

struct ExplainResult {
  /// Ok for every executed extraction — including truncated ones, which
  /// report via explanation.completeness. Non-Ok only when nothing ran
  /// (shed, expired admission deadline, invalid ids).
  Status status;
  Explanation explanation;
  /// The sampled conversion set (sufficient scenario only).
  std::vector<EntityId> conversion_set;
};

class Server {
 public:
  /// Loads the pool from `model_path` and starts the dispatchers. `dataset`
  /// must outlive the server.
  static Result<std::unique_ptr<Server>> Create(const std::string& model_path,
                                                const Dataset& dataset,
                                                const ServerOptions& options);

  /// Stops accepting, drains queued requests (every accepted future is
  /// fulfilled), joins the dispatchers.
  ~Server();

  /// Submits a score request. The future resolves to the score, or to a
  /// shed/deadline status if admission control rejected it. Never blocks.
  std::future<ScoreResult> Submit(ScoreRequest request);

  /// Submits an explain request; same admission semantics.
  std::future<ExplainResult> SubmitExplain(ExplainRequest request);

  /// Releases dispatchers created with `start_paused`. No-op otherwise.
  void Resume();

  /// Closes admission (later Submits shed) and drains: queued requests
  /// still execute, then dispatchers exit. Idempotent; the destructor calls
  /// it. To abandon in-flight extractions early, request cancellation on
  /// `options().cancel` first — they return best-so-far and the drain stays
  /// prompt.
  void Stop();

  size_t queue_depth() const { return queue_.depth(); }
  const ServerOptions& options() const { return options_; }
  const Dataset& dataset() const { return dataset_; }
  ModelPool& pool() { return *pool_; }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  struct PendingScore {
    ScoreRequest request;
    std::promise<ScoreResult> promise;
  };
  struct PendingExplain {
    ExplainRequest request;
    std::promise<ExplainResult> promise;
  };
  struct Pending {
    std::variant<PendingScore, PendingExplain> body;
    /// Steady-clock enqueue instant, for the queue-wait histogram.
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Registry handles resolved once at construction. All serve metrics are
  /// kWallClock: outcomes (shed vs ok), batch composition and latencies
  /// depend on arrival timing and the dispatch schedule, never on the
  /// deterministic result bytes.
  struct ServeMetrics {
    metrics::Counter& score_ok;
    metrics::Counter& score_shed;
    metrics::Counter& score_deadline;
    metrics::Counter& score_error;
    metrics::Counter& explain_ok;
    metrics::Counter& explain_shed;
    metrics::Counter& explain_deadline;
    metrics::Counter& explain_error;
    metrics::Counter& truncated_budget;
    metrics::Counter& truncated_deadline;
    metrics::Counter& truncated_cancelled;
    metrics::Gauge& queue_depth;
    metrics::Histogram& batch_size;
    metrics::Histogram& queue_seconds;
    metrics::Histogram& execute_seconds;

    static ServeMetrics Resolve();
  };

  Server(const Dataset& dataset, const ServerOptions& options,
         std::unique_ptr<ModelPool> pool);

  void DispatcherLoop();
  void Execute(ModelPool::Lease& lease, Pending pending);
  void ExecuteScore(ModelPool::Lease& lease, PendingScore pending);
  void ExecuteExplain(ModelPool::Lease& lease, PendingExplain pending);
  /// Stamps the enqueue time and offers `pending` to the queue. On
  /// rejection (full or closed) `pending` is left intact so the caller can
  /// fulfil the promise it carries with the shed status.
  bool Enqueue(Pending& pending);

  const Dataset& dataset_;
  ServerOptions options_;
  std::unique_ptr<ModelPool> pool_;
  RequestQueue<Pending> queue_;
  ServeMetrics metrics_;
  std::vector<std::thread> dispatchers_;
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool paused_ = false;
  bool stopped_ = false;
};

}  // namespace serve
}  // namespace kelpie

#endif  // KELPIE_SERVE_SERVER_H_
