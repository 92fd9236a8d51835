// Kelpie-as-a-service determinism contract (DESIGN.md §12): the response
// bytes a pooled, batching, concurrent server produces must equal what a
// fresh one-shot process would produce for the same query — at any pool
// size, dispatcher count, extraction thread count, or request order. The
// golden test replays a mixed concurrent workload (scores, necessary and
// sufficient explains, duplicates) against a sequential fresh-Kelpie
// reference. Admission control (bounded queue shedding, expired admission
// deadlines) is exercised deterministically via start_paused.
#include "serve/server.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.h"
#include "models/model_store.h"
#include "serve/client.h"
#include "serve/line_protocol.h"
#include "serve/model_pool.h"
#include "serve/tcp_server.h"
#include "tests/test_util.h"

namespace kelpie {
namespace serve {
namespace {

/// One request of the golden workload.
struct WorkItem {
  bool is_score = false;
  Triple triple{0, 0, 0};
  ExplanationKind kind = ExplanationKind::kNecessary;
};

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing_util::MakeToyDataset());
    auto model = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_);
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("kelpie_serve_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
    model_path_ = new std::string((*dir_ / "model.bin").string());
    ASSERT_TRUE(
        SaveModel(*model, ModelKind::kComplEx, *model_path_).ok());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete model_path_;
    model_path_ = nullptr;
    delete dir_;
    dir_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  /// Small conversion sets keep the sufficient extractions fast; shared by
  /// the server and the reference so both sample identically.
  static KelpieOptions TestKelpieOptions(size_t num_threads) {
    KelpieOptions options;
    options.engine.conversion_set_size = 4;
    options.engine.num_threads = num_threads;
    return options;
  }

  static Triple CityPrediction(int j) {
    const Dataset& d = *dataset_;
    int32_t city = d.entities().Find("City_" + std::to_string(j)).value();
    int32_t rel = d.relations().Find("located_in").value();
    int32_t country =
        d.entities().Find("Country_" + std::to_string(j % 3)).value();
    return Triple(city, rel, country);
  }

  /// What a fresh one-shot process answers for `item`: a brand-new Kelpie
  /// (cold caches, virgin RNG) over the same model file, rendered with the
  /// wire renderers. `id` is the response id baked into the line.
  static std::string ReferenceLine(const LinkPredictionModel& model,
                                   const WorkItem& item, uint64_t id) {
    if (item.is_score) {
      return ScoreResponseLine(id, model.Score(item.triple));
    }
    Kelpie kelpie(model, *dataset_, TestKelpieOptions(1));
    if (item.kind == ExplanationKind::kSufficient) {
      Rng rng(kelpie.engine().options().seed);
      std::vector<EntityId> conversion = kelpie.engine().SampleConversionSet(
          item.triple, PredictionTarget::kTail, rng);
      Explanation x = kelpie.ExplainSufficientWithSet(
          item.triple, PredictionTarget::kTail, conversion);
      return ExplainResponseLine(id, x, conversion, *dataset_);
    }
    Explanation x =
        kelpie.ExplainNecessary(item.triple, PredictionTarget::kTail);
    return ExplainResponseLine(id, x, {}, *dataset_);
  }

  static Dataset* dataset_;
  static std::filesystem::path* dir_;
  static std::string* model_path_;
};

Dataset* ServeTest::dataset_ = nullptr;
std::filesystem::path* ServeTest::dir_ = nullptr;
std::string* ServeTest::model_path_ = nullptr;

// ---------------------------------------------------------- model pool ----

TEST_F(ServeTest, PoolDispatchesRoundRobin) {
  Result<std::unique_ptr<ModelPool>> pool =
      ModelPool::LoadFromFile(*model_path_, *dataset_, 2, {});
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_EQ((*pool)->size(), 2u);
  { ModelPool::Lease lease = (*pool)->Acquire(); EXPECT_EQ(lease.index(), 0u); }
  { ModelPool::Lease lease = (*pool)->Acquire(); EXPECT_EQ(lease.index(), 1u); }
  { ModelPool::Lease lease = (*pool)->Acquire(); EXPECT_EQ(lease.index(), 0u); }
}

TEST_F(ServeTest, PoolInstancesScoreIdentically) {
  Result<std::unique_ptr<ModelPool>> pool =
      ModelPool::LoadFromFile(*model_path_, *dataset_, 3, {});
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const Triple probe = CityPrediction(0);
  ModelPool::Lease a = (*pool)->Acquire();
  ModelPool::Lease b = (*pool)->Acquire();
  EXPECT_EQ(a.model().Score(probe), b.model().Score(probe))
      << "pool instances must carry bitwise-identical parameters";
}

TEST_F(ServeTest, PoolLoadFailsCleanlyOnMissingFile) {
  Result<std::unique_ptr<ModelPool>> pool = ModelPool::LoadFromFile(
      (*dir_ / "no_such_model.bin").string(), *dataset_, 2, {});
  EXPECT_FALSE(pool.ok());
}

// -------------------------------------------------------------- golden ----

// The acceptance test: pool 2, 2 dispatchers, 2 extraction threads, 4
// concurrent submitter threads, duplicated requests — every response line
// byte-identical to the sequential fresh-process reference.
TEST_F(ServeTest, GoldenConcurrentWorkloadMatchesOneShotBytes) {
  // Workload: every test fact scored, necessary explains (duplicated),
  // sufficient explains (duplicated) — interleaved so consecutive requests
  // land on different pool instances.
  std::vector<WorkItem> workload;
  for (const Triple& t : dataset_->test()) {
    workload.push_back({true, t, ExplanationKind::kNecessary});
  }
  const Triple necessary = CityPrediction(0);
  const Triple sufficient = CityPrediction(1);
  workload.push_back({false, necessary, ExplanationKind::kNecessary});
  workload.push_back({false, sufficient, ExplanationKind::kSufficient});
  workload.push_back({true, necessary, ExplanationKind::kNecessary});
  workload.push_back({false, necessary, ExplanationKind::kNecessary});
  workload.push_back({false, sufficient, ExplanationKind::kSufficient});

  // Sequential reference, fresh Kelpie per request.
  Result<std::unique_ptr<LinkPredictionModel>> model =
      LoadModel(*model_path_);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::vector<std::string> expected;
  for (size_t i = 0; i < workload.size(); ++i) {
    expected.push_back(ReferenceLine(**model, workload[i], i));
  }

  // The served run: everything submitted concurrently from 4 threads.
  ServerOptions options;
  options.pool_size = 2;
  options.kelpie = TestKelpieOptions(2);
  Result<std::unique_ptr<Server>> server =
      Server::Create(*model_path_, *dataset_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::vector<std::future<ScoreResult>> scores(workload.size());
  std::vector<std::future<ExplainResult>> explains(workload.size());
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = t; i < workload.size(); i += 4) {
        const WorkItem& item = workload[i];
        if (item.is_score) {
          scores[i] = (*server)->Submit(ScoreRequest{item.triple, {}});
        } else {
          ExplainRequest request;
          request.prediction = item.triple;
          request.kind = item.kind;
          explains[i] = (*server)->SubmitExplain(std::move(request));
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  std::vector<std::string> actual(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    if (workload[i].is_score) {
      ScoreResult r = scores[i].get();
      ASSERT_TRUE(r.status.ok()) << i << ": " << r.status.ToString();
      actual[i] = ScoreResponseLine(i, r.score);
    } else {
      ExplainResult r = explains[i].get();
      ASSERT_TRUE(r.status.ok()) << i << ": " << r.status.ToString();
      actual[i] =
          ExplainResponseLine(i, r.explanation, r.conversion_set, *dataset_);
    }
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "request " << i;
  }
  (*server)->Stop();
}

// The Nth identical request must answer like the first: a pooled instance
// serves request after request, and nothing from an earlier one may leak
// into the bytes.
TEST_F(ServeTest, RepeatedRequestsOnAWarmPoolAnswerIdentically) {
  ServerOptions options;
  options.pool_size = 1;  // every request lands on the same instance
  options.kelpie = TestKelpieOptions(1);
  Result<std::unique_ptr<Server>> server =
      Server::Create(*model_path_, *dataset_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const Triple prediction = CityPrediction(2);
  std::vector<std::string> lines;
  for (int round = 0; round < 3; ++round) {
    ExplainRequest request;
    request.prediction = prediction;
    request.kind = ExplanationKind::kSufficient;
    ExplainResult r = (*server)->SubmitExplain(std::move(request)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    lines.push_back(
        ExplainResponseLine(1, r.explanation, r.conversion_set, *dataset_));
  }
  EXPECT_EQ(lines[0], lines[1]);
  EXPECT_EQ(lines[1], lines[2]);
}

// --------------------------------------------------- admission control ----

TEST_F(ServeTest, BoundedQueueShedsDeterministically) {
  ServerOptions options;
  options.pool_size = 1;
  options.max_queue_depth = 2;
  options.start_paused = true;  // nothing drains until Resume()
  Result<std::unique_ptr<Server>> server =
      Server::Create(*model_path_, *dataset_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const Triple probe = CityPrediction(0);
  std::future<ScoreResult> first = (*server)->Submit({probe, {}});
  std::future<ScoreResult> second = (*server)->Submit({probe, {}});
  std::future<ScoreResult> third = (*server)->Submit({probe, {}});
  EXPECT_EQ((*server)->queue_depth(), 2u);

  // The shed future is fulfilled synchronously — no dispatcher involved.
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ScoreResult shed = third.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);

  (*server)->Resume();
  ScoreResult a = first.get();
  ScoreResult b = second.get();
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.score, b.score);
  (*server)->Stop();
}

TEST_F(ServeTest, ExpiredAdmissionDeadlineIsDeadlineExceededNotExecuted) {
  ServerOptions options;
  options.pool_size = 1;
  options.start_paused = true;
  Result<std::unique_ptr<Server>> server =
      Server::Create(*model_path_, *dataset_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const Triple probe = CityPrediction(0);
  std::future<ScoreResult> late_score =
      (*server)->Submit({probe, Deadline::After(0.0)});
  ExplainRequest explain;
  explain.prediction = probe;
  explain.admission_deadline = Deadline::After(0.0);
  std::future<ExplainResult> late_explain =
      (*server)->SubmitExplain(std::move(explain));
  // An unconstrained request behind them still executes.
  std::future<ScoreResult> fine = (*server)->Submit({probe, {}});

  (*server)->Resume();
  EXPECT_EQ(late_score.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late_explain.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(fine.get().status.ok());
  (*server)->Stop();
}

TEST_F(ServeTest, OutOfRangeIdsAreRejectedWithoutTouchingTheQueue) {
  ServerOptions options;
  options.pool_size = 1;
  options.start_paused = true;  // a queued request would never resolve
  Result<std::unique_ptr<Server>> server =
      Server::Create(*model_path_, *dataset_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::future<ScoreResult> bad_score =
      (*server)->Submit({Triple(999999, 0, 0), {}});
  EXPECT_EQ(bad_score.get().status.code(), StatusCode::kInvalidArgument);
  ExplainRequest bad_explain;
  bad_explain.prediction = Triple(0, 999999, 0);
  EXPECT_EQ((*server)->SubmitExplain(std::move(bad_explain)).get()
                .status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*server)->queue_depth(), 0u);
  (*server)->Stop();
}

TEST_F(ServeTest, StopDrainsAcceptedWorkAndShedsLaterSubmits) {
  ServerOptions options;
  options.pool_size = 2;
  Result<std::unique_ptr<Server>> server =
      Server::Create(*model_path_, *dataset_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const Triple probe = CityPrediction(0);
  std::vector<std::future<ScoreResult>> accepted;
  for (int i = 0; i < 8; ++i) {
    accepted.push_back((*server)->Submit({probe, {}}));
  }
  (*server)->Stop();
  for (std::future<ScoreResult>& f : accepted) {
    // Every accepted future resolves: executed before the drain finished.
    EXPECT_TRUE(f.get().status.ok());
  }
  ScoreResult after = (*server)->Submit({probe, {}}).get();
  EXPECT_EQ(after.status.code(), StatusCode::kUnavailable);
}

// ------------------------------------------------------------ tcp front ----

// Every connection gets a handler thread; one that has exited must be
// joined while the server runs, not at shutdown, or each closed connection
// keeps its thread's stack mapped for the server's lifetime.
TEST_F(ServeTest, TcpServerJoinsFinishedConnectionHandlers) {
  ServerOptions options;
  options.pool_size = 1;
  Result<std::unique_ptr<Server>> server =
      Server::Create(*model_path_, *dataset_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  TcpServer tcp(**server, {});
  ASSERT_TRUE(tcp.Start().ok());
  std::thread accept_loop([&tcp] { tcp.Run(); });

  ClientOptions client;
  client.port = tcp.port();
  client.max_retries = 0;
  for (uint64_t id = 1; id <= 64; ++id) {
    const std::string ping =
        "{\"id\":" + std::to_string(id) + ",\"op\":\"ping\"}";
    Result<ClientBatchResult> batch = RunClientBatch(client, {ping});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->responses.size(), 1u);
    EXPECT_EQ(batch->responses[0], PingResponseLine(id));
  }
  // The accept loop wakes at least every 100 ms and joins what has exited.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (tcp.unjoined_handlers() > 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(tcp.unjoined_handlers(), 1u);

  tcp.Shutdown();
  accept_loop.join();
  EXPECT_EQ(tcp.unjoined_handlers(), 0u);
  (*server)->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace kelpie
