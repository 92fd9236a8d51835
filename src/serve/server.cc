#include "serve/server.h"

#include <cstdio>
#include <exception>
#include <utility>

#include "common/trace.h"

namespace kelpie {
namespace serve {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Server::ServeMetrics Server::ServeMetrics::Resolve() {
  metrics::Registry& reg = metrics::Registry::Global();
  const metrics::Determinism wc = metrics::Determinism::kWallClock;
  auto counter = [&](const char* op, const char* outcome) -> metrics::Counter& {
    return reg.GetCounter("kelpie_serve_requests_total",
                          {{"op", op}, {"outcome", outcome}}, wc,
                          "Serve requests by operation and outcome.");
  };
  auto truncated = [&](const char* reason) -> metrics::Counter& {
    return reg.GetCounter(
        "kelpie_serve_explain_truncated_total", {{"reason", reason}}, wc,
        "Executed explains whose extraction a limit truncated.");
  };
  return ServeMetrics{
      counter("score", "ok"),
      counter("score", "shed"),
      counter("score", "deadline"),
      counter("score", "error"),
      counter("explain", "ok"),
      counter("explain", "shed"),
      counter("explain", "deadline"),
      counter("explain", "error"),
      truncated("budget"),
      truncated("deadline"),
      truncated("cancelled"),
      reg.GetGauge("kelpie_serve_queue_depth", {}, wc,
                   "Requests waiting in the admission queue."),
      reg.GetHistogram("kelpie_serve_batch_size",
                       metrics::LinearBuckets(1.0, 1.0, 16), {}, wc,
                       "Requests coalesced per dispatched batch."),
      reg.GetHistogram("kelpie_serve_queue_wait_seconds",
                       metrics::ExponentialBuckets(1e-5, 4.0, 10), {}, wc,
                       "Seconds from admission to execution start."),
      reg.GetHistogram("kelpie_serve_execute_seconds",
                       metrics::ExponentialBuckets(1e-4, 4.0, 12), {}, wc,
                       "Seconds executing a request on a pool lease."),
  };
}

Server::Server(const Dataset& dataset, const ServerOptions& options,
               std::unique_ptr<ModelPool> pool)
    : dataset_(dataset),
      options_(options),
      pool_(std::move(pool)),
      queue_(options.max_queue_depth),
      metrics_(ServeMetrics::Resolve()),
      paused_(options.start_paused) {
  dispatchers_.reserve(options_.pool_size);
  for (size_t i = 0; i < options_.pool_size; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

Result<std::unique_ptr<Server>> Server::Create(const std::string& model_path,
                                               const Dataset& dataset,
                                               const ServerOptions& options) {
  Result<std::unique_ptr<ModelPool>> pool = ModelPool::LoadFromFile(
      model_path, dataset, options.pool_size, options.kelpie);
  if (!pool.ok()) return pool.status();
  return std::unique_ptr<Server>(
      new Server(dataset, options, std::move(pool).value()));
}

Server::~Server() { Stop(); }

void Server::Resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    if (stopped_) return;
    stopped_ = true;
    paused_ = false;
  }
  pause_cv_.notify_all();
  queue_.Close();
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
  // Drained: persist the shared relevance cache so the warm state survives
  // the restart. A failed flush only costs the next process its warm start.
  if (options_.kelpie.engine.relevance_cache != nullptr) {
    Status flushed = options_.kelpie.engine.relevance_cache->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "serve: relevance-cache flush failed: %s\n",
                   flushed.ToString().c_str());
    }
  }
}

bool Server::Enqueue(Pending& pending) {
  pending.enqueued = std::chrono::steady_clock::now();
  if (!queue_.TryPush(std::move(pending))) return false;
  metrics_.queue_depth.Set(static_cast<double>(queue_.depth()));
  return true;
}

std::future<ScoreResult> Server::Submit(ScoreRequest request) {
  PendingScore pending{std::move(request), {}};
  std::future<ScoreResult> future = pending.promise.get_future();
  const Triple& t = pending.request.triple;
  if (static_cast<size_t>(t.head) >= dataset_.num_entities() ||
      static_cast<size_t>(t.tail) >= dataset_.num_entities() ||
      static_cast<size_t>(t.relation) >= dataset_.num_relations() ||
      t.head < 0 || t.tail < 0 || t.relation < 0) {
    metrics_.score_error.Increment();
    pending.promise.set_value(
        {Status::InvalidArgument("score request ids out of range"), 0.0f});
    return future;
  }
  Pending item{std::move(pending), {}};
  if (!Enqueue(item)) {
    metrics_.score_shed.Increment();
    std::get<PendingScore>(item.body).promise.set_value(
        {Status::Unavailable("request shed: queue full or shutting down"),
         0.0f});
  }
  return future;
}

std::future<ExplainResult> Server::SubmitExplain(ExplainRequest request) {
  PendingExplain pending{std::move(request), {}};
  std::future<ExplainResult> future = pending.promise.get_future();
  const Triple& t = pending.request.prediction;
  if (static_cast<size_t>(t.head) >= dataset_.num_entities() ||
      static_cast<size_t>(t.tail) >= dataset_.num_entities() ||
      static_cast<size_t>(t.relation) >= dataset_.num_relations() ||
      t.head < 0 || t.tail < 0 || t.relation < 0) {
    metrics_.explain_error.Increment();
    ExplainResult result;
    result.status =
        Status::InvalidArgument("explain request ids out of range");
    pending.promise.set_value(std::move(result));
    return future;
  }
  Pending item{std::move(pending), {}};
  if (!Enqueue(item)) {
    metrics_.explain_shed.Increment();
    ExplainResult result;
    result.status =
        Status::Unavailable("request shed: queue full or shutting down");
    std::get<PendingExplain>(item.body).promise.set_value(std::move(result));
  }
  return future;
}

void Server::DispatcherLoop() {
  {
    std::unique_lock<std::mutex> lock(pause_mu_);
    pause_cv_.wait(lock, [&] { return !paused_; });
  }
  std::vector<Pending> batch;
  while (queue_.PopBatch(&batch, options_.max_batch) > 0) {
    metrics_.queue_depth.Set(static_cast<double>(queue_.depth()));
    metrics_.batch_size.Observe(static_cast<double>(batch.size()));
    ModelPool::Lease lease = pool_->Acquire();
    trace::Span span("serve.batch");
    for (Pending& pending : batch) {
      Execute(lease, std::move(pending));
    }
  }
}

void Server::Execute(ModelPool::Lease& lease, Pending pending) {
  metrics_.queue_seconds.Observe(SecondsSince(pending.enqueued));
  if (std::holds_alternative<PendingScore>(pending.body)) {
    ExecuteScore(lease, std::move(std::get<PendingScore>(pending.body)));
  } else {
    ExecuteExplain(lease, std::move(std::get<PendingExplain>(pending.body)));
  }
}

void Server::ExecuteScore(ModelPool::Lease& lease, PendingScore pending) {
  if (pending.request.admission_deadline.Expired()) {
    metrics_.score_deadline.Increment();
    pending.promise.set_value(
        {Status::DeadlineExceeded("admission deadline expired in queue"),
         0.0f});
    return;
  }
  trace::Span span("serve.score");
  const auto start = std::chrono::steady_clock::now();
  const float score = lease.model().Score(pending.request.triple);
  metrics_.execute_seconds.Observe(SecondsSince(start));
  metrics_.score_ok.Increment();
  pending.promise.set_value({Status::Ok(), score});
}

void Server::ExecuteExplain(ModelPool::Lease& lease, PendingExplain pending) {
  ExplainResult result;
  if (pending.request.admission_deadline.Expired()) {
    metrics_.explain_deadline.Increment();
    result.status =
        Status::DeadlineExceeded("admission deadline expired in queue");
    pending.promise.set_value(std::move(result));
    return;
  }
  trace::Span span("serve.explain");
  const auto start = std::chrono::steady_clock::now();
  ExtractionLimits limits;
  limits.work_budget = pending.request.work_budget;
  limits.timeout_seconds = pending.request.timeout_seconds;
  limits.cancel = options_.cancel;
  Kelpie& kelpie = lease.kelpie();
  try {
    if (pending.request.kind == ExplanationKind::kSufficient) {
      result.explanation = kelpie.ExplainSufficient(
          pending.request.prediction, pending.request.target,
          &result.conversion_set, nullptr, limits);
    } else {
      result.explanation = kelpie.ExplainNecessary(
          pending.request.prediction, pending.request.target, nullptr, limits);
    }
  } catch (const std::exception& e) {
    metrics_.explain_error.Increment();
    result.status = Status::Internal(std::string("extraction failed: ") +
                                     e.what());
    pending.promise.set_value(std::move(result));
    return;
  }
  metrics_.execute_seconds.Observe(SecondsSince(start));
  switch (result.explanation.completeness) {
    case Completeness::kComplete:
      break;
    case Completeness::kTruncatedBudget:
      metrics_.truncated_budget.Increment();
      break;
    case Completeness::kTruncatedDeadline:
      metrics_.truncated_deadline.Increment();
      break;
    case Completeness::kCancelled:
      metrics_.truncated_cancelled.Increment();
      break;
  }
  metrics_.explain_ok.Increment();
  result.status = Status::Ok();
  pending.promise.set_value(std::move(result));
}

}  // namespace serve
}  // namespace kelpie
