// Shared pieces of bench_e2e: options, the metric report, set-up, request
// generation, output checks and the traced replays.
#ifndef KELPIE_BENCH_E2E_E2E_H_
#define KELPIE_BENCH_E2E_E2E_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kelpie.h"
#include "kgraph/dataset.h"
#include "models/factory.h"
#include "timed_model.h"

namespace kelpie::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 8.0;
  /// Set-ups per run; setup_s is their median.
  size_t setup_repeats = 3;
  std::string json_path;
  /// Non-empty: run the traced replays after the measured window and write
  /// their spans here at exit.
  std::string trace_path;
  /// Scratch directory for the model file and update journals.
  std::string workdir = ".";
};

// ---------------------------------------------------------------------------
// Metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics BENCHMARK.json names; every workload reports all of them.
/// End-to-end metrics come from the untraced window, per-layer metrics from
/// the traced replays. A per-layer metric of a layer the workload does not
/// use reads 0; those all have count or ratio units.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

class Report {
 public:
  enum class Section { kEndToEnd, kPerLayer, kDetail };

  void Add(Section section, const std::string& name, double value,
           const std::string& unit);
  void EndToEnd(const std::string& name, double value) {
    Add(Section::kEndToEnd, name, value, UnitOf(kEndToEnd, name));
  }
  void Layer(const std::string& name, double value) {
    Add(Section::kPerLayer, name, value, UnitOf(kPerLayer, name));
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    Add(Section::kDetail, name, value, unit);
  }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations or output checks and says why on stderr.
  void Fail(const std::string& why, uint64_t n = 1);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Fills unreported per-layer metrics with 0 (when `traced`) and checks
  /// that every end-to-end metric was reported.
  void Finish(bool traced);
  void Print() const;
  bool WriteJson(const Options& options) const;

 private:
  struct Entry {
    Section section;
    std::string name;
    double value;
    std::string unit;
  };
  static std::string UnitOf(const std::vector<MetricDef>& defs,
                            const std::string& name);
  bool Has(Section section, const std::string& name) const;

  std::vector<Entry> entries_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Ratio(double num, double den);
double PeakRssMb();

// ---------------------------------------------------------------------------
// Set-up

struct SetupTimes {
  double generate_s = 0.0;
  double train_s = 0.0;
  double save_s = 0.0;
  /// Loading what the workload serves from the saved model file.
  double load_s = 0.0;

  double Total() const { return generate_s + train_s + save_s + load_s; }
};

/// One generated graph and its trained model, saved to `model_path`.
struct World {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<LinkPredictionModel> model;
  ModelKind kind = ModelKind::kTransE;
  std::string model_path;
};

/// Seed of every generated graph and of model training. The graph and the
/// model are fixed inputs, like a published dataset; the workload seed only
/// draws the requests. With a graph and model per seed, explain throughput
/// ranged from 17 to 94 per second across ten seeds.
inline constexpr uint64_t kWorldSeed = 7;

/// Generates FB15k-237 at `scale`, trains `kind` with its default config,
/// and saves it; fills every time but load_s.
World BuildWorld(ModelKind kind, double scale, const std::string& model_path,
                 SetupTimes* times);

/// Reports setup_s and the per-phase medians.
void ReportSetup(const std::vector<SetupTimes>& times, Report& report);

std::unique_ptr<LinkPredictionModel> LoadOrDie(const std::string& path);

// ---------------------------------------------------------------------------
// Requests

struct ExplainQuery {
  Triple prediction;
  PredictionTarget target = PredictionTarget::kTail;
  ExplanationKind kind = ExplanationKind::kNecessary;
};

/// Entities a request explains or a delta touches have at most this many
/// training facts: 98% of entities at scale 21. Work on an entity grows with
/// its degree, and the few hubs with thousands of facts cost seconds each;
/// whether a run happened to draw one moved its throughput by more than any
/// bound could absorb.
inline constexpr size_t kMaxEntityDegree = 16;

/// `count` predictions on distinct (entity, relation, direction) queries:
/// a uniform source entity of degree at most kMaxEntityDegree, one of its
/// training facts for the relation, and the model's top-1 filtered answer.
/// Tail and head queries alternate; kinds run 3 necessary to 1 sufficient.
std::vector<ExplainQuery> MakeQueries(const LinkPredictionModel& model,
                                      const Dataset& dataset, uint64_t seed,
                                      size_t count);

/// Explains `query` the way serve::Server executes it on a pool lease.
Explanation ServeStyleExplain(Kelpie& kelpie, const ExplainQuery& query,
                              std::vector<EntityId>* conversion_set);

/// One answered explain request.
struct Served {
  size_t query = 0;  // index into the workload's query list
  uint64_t id = 0;
  ExplanationKind kind = ExplanationKind::kNecessary;
  double latency_s = 0.0;
  std::string line;  // the rendered (or received) response line
};

/// Re-explains 8 seeded served requests (at least 2 sufficient when there
/// are) in a fresh one-shot Kelpie — no cache, 1 thread, exact ranks — over
/// a model loaded from `model_path`, and byte-compares the response lines.
void CheckOneShot(const std::string& model_path, const Dataset& dataset,
                  const std::vector<ExplainQuery>& queries,
                  const std::vector<Served>& served, uint64_t seed,
                  Report& report);

// ---------------------------------------------------------------------------
// Serve-layer registry deltas

struct ServeSnapshot {
  uint64_t queue_count = 0;
  double queue_sum_s = 0.0;
  std::vector<uint64_t> queue_buckets;
  std::vector<double> queue_bounds;
  uint64_t execute_count = 0;
  double execute_sum_s = 0.0;
  uint64_t batch_count = 0;
  double batch_sum = 0.0;
  uint64_t shed = 0;
  uint64_t deadline = 0;

  static ServeSnapshot Take();
  ServeSnapshot Minus(const ServeSnapshot& before) const;
  /// Upper bound of the bucket holding the q-quantile of queue waits.
  double QueueWaitQuantileBound(double q) const;
};

/// serve.* per-layer metrics of a measured window. `latency_sum_s` is the
/// clients' summed request latency; `dispatchers` the server's count.
void ReportServeLayer(const ServeSnapshot& delta, double window_s,
                      double latency_sum_s, size_t dispatchers,
                      Report& report);

// ---------------------------------------------------------------------------
// Traced replays

/// Span buffers of the traced replays, written to --trace once at exit.
class TraceFile {
 public:
  SpanBuffer* NewBuffer(const std::string& replay_name);
  bool Write(const Options& options) const;

 private:
  std::vector<std::pair<std::string, std::unique_ptr<SpanBuffer>>> buffers_;
};

/// One of the three interleaved replays of a traced run: its own model
/// loaded from the world's file, wrapped in TimedModel when it records
/// spans. Replica 0 is plain, 1 timed, 2 timed on the quantized rank path.
struct Replica {
  Replica(const std::string& model_path, SpanBuffer* spans);

  LinkPredictionModel& model() {
    return timed != nullptr ? static_cast<LinkPredictionModel&>(*timed)
                            : *loaded;
  }

  std::unique_ptr<LinkPredictionModel> loaded;
  std::unique_ptr<TimedModel> timed;
  SpanBuffer* spans = nullptr;
  /// Duration of each step, in step order.
  std::vector<double> step_s;
};

/// Runs step(replica, i) for every i on each replica in turn, rotating
/// which goes first, and records each step's duration on its replica.
/// Interleaving pairs the replicas in time, so drift in machine speed
/// cancels out of their ratios.
template <typename Step>
void Interleave(std::array<Replica, 3>& replicas, size_t steps, Step step) {
  for (size_t i = 0; i < steps; ++i) {
    for (size_t j = 0; j < replicas.size(); ++j) {
      Replica& r = replicas[(i + j) % replicas.size()];
      const auto start = std::chrono::steady_clock::now();
      step(r, i);
      r.step_s.push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
  }
}

/// trace.overhead_frac: the median over steps of timed over plain, less 1;
/// a median, so that a stall of the machine during one step does not read
/// as tracing cost. eval.quant_ratio: total quantized over total exact
/// time, both timed.
void ReportReplicas(const std::array<Replica, 3>& replicas, Report& report);

/// The traced part of an explain workload: replays `requests` (ids
/// alongside) in order on one thread, interleaved across the three
/// replicas, each with its own Kelpie built from `kelpie_options` (which
/// carries the relevance cache, if any). One thread keeps the work of every
/// replay identical. Every replayed response line is byte-compared with
/// `expected`. Then times the Pre-Filter alone and reports every core/
/// models/math/eval/trace per-layer metric.
void TraceExplains(const World& world, const KelpieOptions& kelpie_options,
                   const std::vector<ExplainQuery>& requests,
                   const std::vector<uint64_t>& ids,
                   const std::vector<std::string>& expected, TraceFile& trace,
                   Report& report);

/// models.* and math.* per-layer metrics from a timed replay's totals;
/// `op_ns` is the summed duration of the replay's operation roots.
void ReportModelLayer(const SpanTotals& totals, double op_ns, size_t ops,
                      const World& world, Report& report);

/// For explain-cold-paper's traced run: trains the world's model again,
/// dense and then with TrainConfig::sparse_updates, byte-compares both
/// parameter sets with the world's model, and reports ml.sparse_train_ratio
/// (sparse over dense).
void ReportSparseRatio(const World& world, Report& report);

// ---------------------------------------------------------------------------
// Workloads

int RunExplainColdPaper(const Options& options, Report& report,
                        TraceFile& trace);
int RunExplainRepeatSmall(const Options& options, Report& report,
                          TraceFile& trace);
int RunWireMixed(const Options& options, Report& report, TraceFile& trace);
int RunUpdateEvalPaper(const Options& options, Report& report,
                       TraceFile& trace);

}  // namespace kelpie::e2e

#endif  // KELPIE_BENCH_E2E_E2E_H_
