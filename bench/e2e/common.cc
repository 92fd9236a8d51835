#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <tuple>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/relevance_cache.h"
#include "datagen/datasets.h"
#include "e2e.h"
#include "models/model_store.h"
#include "serve/line_protocol.h"

namespace kelpie::e2e {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"main_per_s", "1/s"},
    {"main_p50_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"datagen.generate_s", "s"},
    {"ml.train_s", "s"},
    {"models.save_s", "s"},
    {"models.load_s", "s"},
    {"ml.sparse_train_ratio", "ratio"},
    {"serve.queue_wait_share", "ratio"},
    {"serve.batch_size_mean", "count"},
    {"serve.execute_busy_frac", "ratio"},
    {"serve.wire_share", "ratio"},
    {"serve.shed_total", "count"},
    {"loadgen.late_share", "ratio"},
    {"core.self_share", "ratio"},
    {"core.prefilter_share", "ratio"},
    {"core.post_trainings_per_explain.homologous", "count"},
    {"core.post_trainings_per_explain.necessary", "count"},
    {"core.post_trainings_per_explain.sufficient", "count"},
    {"core.candidates_per_explain", "count"},
    {"core.rank_cache_hit_frac", "ratio"},
    {"core.relevance_cache_hit_frac", "ratio"},
    {"core.relevance_cache_waits", "count"},
    {"core.accepted_frac", "ratio"},
    {"models.post_train_calls_per_op", "count"},
    {"models.post_train_per_s", "1/s"},
    {"models.post_train_share", "ratio"},
    {"models.sweep_calls_per_op", "count"},
    {"models.sweep_us_mean", "us"},
    {"models.sweep_share", "ratio"},
    {"models.score_share", "ratio"},
    {"models.sweep_descriptor_calls_per_op", "count"},
    {"math.sweep_bytes_per_call", "bytes"},
    {"math.sweep_gb_per_s", "GB/s"},
    {"eval.self_share", "ratio"},
    {"eval.quant_ratio", "ratio"},
    {"xp.self_share", "ratio"},
    {"xp.update_rows_per_delta", "count"},
    {"xp.update_post_train_share", "ratio"},
    {"xp.journal_bytes_per_update", "bytes"},
    {"kgraph.rebuild_share", "ratio"},
    {"trace.op_ms_mean", "ms"},
    {"trace.overhead_frac", "ratio"},
};

// ---------------------------------------------------------------------------
// Report

std::string Report::UnitOf(const std::vector<MetricDef>& defs,
                           const std::string& name) {
  for (const MetricDef& def : defs) {
    if (name == def.name) return def.unit;
  }
  std::fprintf(stderr, "bench_e2e: metric %s is not in the metric table\n",
               name.c_str());
  std::abort();
}

void Report::Add(Section section, const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "bench_e2e: metric %s is not finite\n", name.c_str());
    value = 0.0;
    ++failed_;
  }
  for (Entry& e : entries_) {
    if (e.section == section && e.name == name) {
      e.value = value;
      return;
    }
  }
  entries_.push_back({section, name, value, unit});
}

void Report::Fail(const std::string& why, uint64_t n) {
  failed_ += n;
  std::fprintf(stderr, "bench_e2e: FAILED %s\n", why.c_str());
}

bool Report::Has(Section section, const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.section == section && e.name == name) return true;
  }
  return false;
}

void Report::Finish(bool traced) {
  for (const MetricDef& def : kEndToEnd) {
    if (!Has(Section::kEndToEnd, def.name)) {
      Fail(std::string("end-to-end metric not measured: ") + def.name);
    }
  }
  if (!traced) return;
  for (const MetricDef& def : kPerLayer) {
    if (!Has(Section::kPerLayer, def.name)) Layer(def.name, 0.0);
  }
}

void Report::Print() const {
  const char* titles[] = {"end to end", "per layer", "detail"};
  for (int s = 0; s < 3; ++s) {
    std::printf("-- %s\n", titles[s]);
    for (const Entry& e : entries_) {
      if (static_cast<int>(e.section) != s) continue;
      std::printf("%-46s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

bool Report::WriteJson(const Options& options) const {
  if (options.json_path.empty()) return true;
  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                 options.json_path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
               "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               metrics::FormatDouble(options.seconds).c_str(),
               failed_ == 0 ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  const char* keys[] = {"end_to_end", "per_layer", "detail"};
  for (int s = 0; s < 3; ++s) {
    std::fprintf(f, ",\"%s\":{", keys[s]);
    bool first = true;
    for (const Entry& e : entries_) {
      if (static_cast<int>(e.section) != s) continue;
      std::fprintf(f, "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                   first ? "" : ",", e.name.c_str(),
                   metrics::FormatDouble(e.value).c_str(), e.unit.c_str());
      first = false;
    }
    std::fputc('}', f);
  }
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Set-up

World BuildWorld(ModelKind kind, double scale, const std::string& model_path,
                 SetupTimes* times) {
  World world;
  world.kind = kind;
  world.model_path = model_path;
  Stopwatch timer;
  world.dataset = std::make_unique<Dataset>(
      MakeBenchmark(BenchmarkDataset::kFb15k237, scale, kWorldSeed));
  times->generate_s = timer.ElapsedSeconds();
  timer.Restart();
  world.model = CreateAndTrain(kind, *world.dataset, kWorldSeed);
  times->train_s = timer.ElapsedSeconds();
  timer.Restart();
  Status saved = SaveModel(*world.model, kind, model_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "bench_e2e: save %s: %s\n", model_path.c_str(),
                 saved.ToString().c_str());
    std::exit(1);
  }
  times->save_s = timer.ElapsedSeconds();
  return world;
}

void ReportSetup(const std::vector<SetupTimes>& times, Report& report) {
  std::vector<double> total, generate, train, save, load;
  for (const SetupTimes& t : times) {
    total.push_back(t.Total());
    generate.push_back(t.generate_s);
    train.push_back(t.train_s);
    save.push_back(t.save_s);
    load.push_back(t.load_s);
  }
  report.EndToEnd("setup_s", Median(total));
  report.Detail("setup.repeats", static_cast<double>(times.size()), "count");
  report.Layer("datagen.generate_s", Median(generate));
  report.Layer("ml.train_s", Median(train));
  report.Layer("models.save_s", Median(save));
  report.Layer("models.load_s", Median(load));
}

std::unique_ptr<LinkPredictionModel> LoadOrDie(const std::string& path) {
  Result<std::unique_ptr<LinkPredictionModel>> model = LoadModel(path);
  if (!model.ok()) {
    std::fprintf(stderr, "bench_e2e: load %s: %s\n", path.c_str(),
                 model.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(model).value();
}

// ---------------------------------------------------------------------------
// Requests

std::vector<ExplainQuery> MakeQueries(const LinkPredictionModel& model,
                                      const Dataset& dataset, uint64_t seed,
                                      size_t count) {
  Rng rng(seed ^ 0x51554552595345EDULL);
  const GraphIndex& graph = dataset.train_graph();
  std::set<std::tuple<EntityId, RelationId, bool>> used;
  std::vector<float> scores(model.num_entities());
  std::vector<ExplainQuery> out;
  out.reserve(count);
  for (size_t attempts = 0; out.size() < count && attempts < 50 * count + 1000;
       ++attempts) {
    // A uniform entity, then one of its facts in the query's role: sampling
    // facts instead would favour hub entities by their degree.
    const size_t i = out.size();
    const bool tail = i % 2 == 0;
    const EntityId source =
        static_cast<EntityId>(rng.UniformUint64(dataset.num_entities()));
    if (graph.Degree(source) > kMaxEntityDegree) continue;
    std::vector<Triple> facts = graph.FactsOf(source);
    std::erase_if(facts, [&](const Triple& f) {
      return (tail ? f.head : f.tail) != source;
    });
    if (facts.empty()) continue;
    const Triple& fact = facts[rng.UniformUint64(facts.size())];
    if (!used.emplace(source, fact.relation, tail).second) continue;
    if (tail) {
      model.ScoreAllTails(fact.head, fact.relation, scores);
    } else {
      model.ScoreAllHeads(fact.relation, fact.tail, scores);
    }
    const std::unordered_set<EntityId>& known =
        tail ? dataset.KnownTails(fact.head, fact.relation)
             : dataset.KnownHeads(fact.relation, fact.tail);
    EntityId best = kNoEntity;
    float best_score = -std::numeric_limits<float>::infinity();
    for (size_t e = 0; e < scores.size(); ++e) {
      const EntityId id = static_cast<EntityId>(e);
      if (id == source || known.count(id) > 0) continue;
      if (std::isfinite(scores[e]) && scores[e] > best_score) {
        best_score = scores[e];
        best = id;
      }
    }
    if (best == kNoEntity) continue;
    ExplainQuery query;
    query.target = tail ? PredictionTarget::kTail : PredictionTarget::kHead;
    query.prediction = tail ? Triple(fact.head, fact.relation, best)
                            : Triple(best, fact.relation, fact.tail);
    query.kind = (i / 2) % 4 == 3 ? ExplanationKind::kSufficient
                                  : ExplanationKind::kNecessary;
    out.push_back(query);
  }
  return out;
}

Explanation ServeStyleExplain(Kelpie& kelpie, const ExplainQuery& query,
                              std::vector<EntityId>* conversion_set) {
  conversion_set->clear();
  if (query.kind == ExplanationKind::kSufficient) {
    Rng rng(kelpie.engine().options().seed);
    *conversion_set = kelpie.engine().SampleConversionSet(query.prediction,
                                                          query.target, rng);
    return kelpie.ExplainSufficientWithSet(query.prediction, query.target,
                                           *conversion_set);
  }
  return kelpie.ExplainNecessary(query.prediction, query.target);
}

void CheckOneShot(const std::string& model_path, const Dataset& dataset,
                  const std::vector<ExplainQuery>& queries,
                  const std::vector<Served>& served, uint64_t seed,
                  Report& report) {
  Rng rng(seed ^ 0xC0FFEE0DDBA11ULL);
  std::vector<size_t> sufficient, necessary;
  for (size_t i = 0; i < served.size(); ++i) {
    (served[i].kind == ExplanationKind::kSufficient ? sufficient : necessary)
        .push_back(i);
  }
  rng.Shuffle(sufficient);
  std::vector<size_t> picks(sufficient.begin(),
                            sufficient.begin() +
                                std::min<size_t>(2, sufficient.size()));
  std::vector<size_t> rest(necessary);
  rest.insert(rest.end(), sufficient.begin() + picks.size(), sufficient.end());
  rng.Shuffle(rest);
  for (size_t i = 0; i < rest.size() && picks.size() < 8; ++i) {
    picks.push_back(rest[i]);
  }

  std::unique_ptr<LinkPredictionModel> model = LoadOrDie(model_path);
  for (size_t pick : picks) {
    const Served& s = served[pick];
    const ExplainQuery& q = queries[s.query];
    Kelpie kelpie(*model, dataset, {});
    std::vector<EntityId> conversion_set;
    const Explanation x =
        q.kind == ExplanationKind::kSufficient
            ? kelpie.ExplainSufficient(q.prediction, q.target, &conversion_set)
            : kelpie.ExplainNecessary(q.prediction, q.target);
    report.Attempt();
    const std::string line =
        serve::ExplainResponseLine(s.id, x, conversion_set, dataset);
    if (line != s.line) {
      report.Fail("one-shot explain differs from served response " +
                  std::to_string(s.id) + ":\n  served:   " + s.line +
                  "\n  one-shot: " + line);
    }
  }
  report.Detail("checks.one_shot_explains", static_cast<double>(picks.size()),
                "count");
}

// ---------------------------------------------------------------------------
// Serve-layer registry deltas

namespace {

constexpr metrics::Determinism kWallClock = metrics::Determinism::kWallClock;

uint64_t ServeCounter(const char* op, const char* outcome) {
  return metrics::Registry::Global()
      .GetCounter("kelpie_serve_requests_total",
                  {{"op", op}, {"outcome", outcome}}, kWallClock)
      .Value();
}

}  // namespace

ServeSnapshot ServeSnapshot::Take() {
  metrics::Registry& reg = metrics::Registry::Global();
  ServeSnapshot s;
  metrics::Histogram& queue = reg.GetHistogram(
      "kelpie_serve_queue_wait_seconds",
      metrics::ExponentialBuckets(1e-5, 4.0, 10), {}, kWallClock);
  s.queue_count = queue.Count();
  s.queue_sum_s = queue.Sum();
  s.queue_bounds = queue.bounds();
  for (size_t i = 0; i <= queue.bounds().size(); ++i) {
    s.queue_buckets.push_back(queue.BucketCount(i));
  }
  metrics::Histogram& execute = reg.GetHistogram(
      "kelpie_serve_execute_seconds",
      metrics::ExponentialBuckets(1e-4, 4.0, 12), {}, kWallClock);
  s.execute_count = execute.Count();
  s.execute_sum_s = execute.Sum();
  metrics::Histogram& batch =
      reg.GetHistogram("kelpie_serve_batch_size",
                       metrics::LinearBuckets(1.0, 1.0, 16), {}, kWallClock);
  s.batch_count = batch.Count();
  s.batch_sum = batch.Sum();
  s.shed = ServeCounter("score", "shed") + ServeCounter("explain", "shed");
  s.deadline =
      ServeCounter("score", "deadline") + ServeCounter("explain", "deadline");
  return s;
}

ServeSnapshot ServeSnapshot::Minus(const ServeSnapshot& before) const {
  ServeSnapshot d = *this;
  d.queue_count -= before.queue_count;
  d.queue_sum_s -= before.queue_sum_s;
  for (size_t i = 0; i < d.queue_buckets.size(); ++i) {
    d.queue_buckets[i] -= before.queue_buckets[i];
  }
  d.execute_count -= before.execute_count;
  d.execute_sum_s -= before.execute_sum_s;
  d.batch_count -= before.batch_count;
  d.batch_sum -= before.batch_sum;
  d.shed -= before.shed;
  d.deadline -= before.deadline;
  return d;
}

double ServeSnapshot::QueueWaitQuantileBound(double q) const {
  const double want = q * static_cast<double>(queue_count);
  double seen = 0.0;
  for (size_t i = 0; i < queue_buckets.size(); ++i) {
    seen += static_cast<double>(queue_buckets[i]);
    if (seen >= want) {
      return i < queue_bounds.size() ? queue_bounds[i]
                                     : std::numeric_limits<double>::max();
    }
  }
  return queue_bounds.empty() ? 0.0 : queue_bounds.back();
}

void ReportServeLayer(const ServeSnapshot& delta, double window_s,
                      double latency_sum_s, size_t dispatchers,
                      Report& report) {
  report.Layer("serve.queue_wait_share",
               Ratio(delta.queue_sum_s, latency_sum_s));
  report.Layer("serve.batch_size_mean",
               Ratio(delta.batch_sum, static_cast<double>(delta.batch_count)));
  report.Layer("serve.execute_busy_frac",
               Ratio(delta.execute_sum_s,
                     window_s * static_cast<double>(dispatchers)));
  report.Layer("serve.wire_share",
               Ratio(latency_sum_s - delta.queue_sum_s - delta.execute_sum_s,
                     latency_sum_s));
  report.Layer("serve.shed_total",
               static_cast<double>(delta.shed + delta.deadline));
  report.Detail("serve.queue_wait_mean_us",
                1e6 * Ratio(delta.queue_sum_s,
                            static_cast<double>(delta.queue_count)),
                "us");
  report.Detail("serve.queue_wait_p99_bucket_us",
                1e6 * delta.QueueWaitQuantileBound(0.99), "us");
  report.Detail("serve.execute_mean_us",
                1e6 * Ratio(delta.execute_sum_s,
                            static_cast<double>(delta.execute_count)),
                "us");
}

// ---------------------------------------------------------------------------
// Traced replays

SpanBuffer* TraceFile::NewBuffer(const std::string& replay_name) {
  // Generous for a replay at paper scale (a few tens of thousands of spans);
  // the pages are only touched as spans arrive.
  buffers_.emplace_back(replay_name, std::make_unique<SpanBuffer>(1u << 21));
  return buffers_.back().second.get();
}

bool TraceFile::Write(const Options& options) const {
  if (options.trace_path.empty()) return true;
  std::FILE* f = std::fopen(options.trace_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                 options.trace_path.c_str());
    return false;
  }
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"replays\":[",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed));
  for (size_t i = 0; i < buffers_.size(); ++i) {
    const SpanBuffer& buffer = *buffers_[i].second;
    std::fprintf(f, "%s{\"name\":\"%s\",\"dropped\":%llu,\"spans\":",
                 i == 0 ? "" : ",", buffers_[i].first.c_str(),
                 static_cast<unsigned long long>(buffer.dropped()));
    buffer.WriteJson(f);
    std::fputc('}', f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Replica::Replica(const std::string& model_path, SpanBuffer* span_buffer)
    : loaded(LoadOrDie(model_path)), spans(span_buffer) {
  if (spans != nullptr) timed = std::make_unique<TimedModel>(*loaded, *spans);
}

namespace {

uint64_t EngineCounter(const char* family, const char* key,
                       const char* value) {
  return metrics::Registry::Global()
      .GetCounter(family, {{key, value}}, kWallClock)
      .Value();
}

}  // namespace

void ReportModelLayer(const SpanTotals& totals, double op_ns, size_t ops,
                      const World& world, Report& report) {
  const double n_ops = static_cast<double>(ops);
  const double post_calls =
      static_cast<double>(totals.Calls(SpanName::kPostTrain));
  const double sweep_calls = static_cast<double>(totals.Calls(SpanName::kSweep));
  report.Layer("models.post_train_calls_per_op", Ratio(post_calls, n_ops));
  // A rate rather than a mean time, so that it reads 0, not a constant
  // time, on workloads whose post-trainings are all cache hits.
  report.Layer("models.post_train_per_s",
               Ratio(post_calls, totals.Ns(SpanName::kPostTrain) / 1e9));
  report.Layer("models.post_train_share",
               Ratio(totals.Ns(SpanName::kPostTrain), op_ns));
  report.Layer("models.sweep_calls_per_op", Ratio(sweep_calls, n_ops));
  const double sweep_us = Ratio(totals.Ns(SpanName::kSweep), sweep_calls) / 1e3;
  report.Layer("models.sweep_us_mean", sweep_us);
  report.Layer("models.sweep_share", Ratio(totals.Ns(SpanName::kSweep), op_ns));
  report.Layer("models.score_share", Ratio(totals.Ns(SpanName::kScore), op_ns));
  // Computed, not measured: one pass over the float entity table.
  const double bytes = static_cast<double>(world.model->num_entities()) *
                       static_cast<double>(world.model->entity_dim()) * 4.0;
  report.Layer("math.sweep_bytes_per_call", bytes);
  report.Layer("math.sweep_gb_per_s", Ratio(bytes, sweep_us * 1e3));
  report.Detail("trace.account_err_max", totals.account_err_max, "ratio");
  report.Layer("trace.op_ms_mean", Ratio(op_ns, n_ops) / 1e6);
}

void ReportReplicas(const std::array<Replica, 3>& replicas, Report& report) {
  std::vector<double> overhead;
  for (size_t i = 0; i < replicas[0].step_s.size(); ++i) {
    overhead.push_back(Ratio(replicas[1].step_s[i], replicas[0].step_s[i]));
  }
  auto total = [](const Replica& r) {
    double sum = 0.0;
    for (double s : r.step_s) sum += s;
    return sum;
  };
  const double plain_s = total(replicas[0]);
  const double exact_s = total(replicas[1]);
  const double quant_s = total(replicas[2]);
  report.Layer("trace.overhead_frac", Median(overhead) - 1.0);
  report.Layer("eval.quant_ratio", Ratio(quant_s, exact_s));
  report.Detail("trace.replay_plain_s", plain_s, "s");
  report.Detail("trace.replay_timed_s", exact_s, "s");
  report.Detail("trace.replay_quant_s", quant_s, "s");
  report.Detail("trace.dropped_spans",
                static_cast<double>(replicas[1].spans->dropped() +
                                    replicas[2].spans->dropped()),
                "count");
}

void TraceExplains(const World& world, const KelpieOptions& kelpie_options,
                   const std::vector<ExplainQuery>& requests,
                   const std::vector<uint64_t>& ids,
                   const std::vector<std::string>& expected, TraceFile& trace,
                   Report& report) {
  SpanBuffer* exact = trace.NewBuffer("timed_exact");
  SpanBuffer* quant = trace.NewBuffer("timed_quant");
  std::array<Replica, 3> replicas = {Replica(world.model_path, nullptr),
                                     Replica(world.model_path, exact),
                                     Replica(world.model_path, quant)};
  std::vector<std::unique_ptr<Kelpie>> kelpies;
  for (Replica& r : replicas) {
    KelpieOptions options = kelpie_options;
    options.engine.quantized_shortlist = r.spans == quant;
    kelpies.push_back(
        std::make_unique<Kelpie>(r.model(), *world.dataset, options));
  }

  const char* post = "kelpie_engine_post_trainings_total";
  const char* rank = "kelpie_engine_rank_cache_total";
  const uint64_t homologous0 = EngineCounter(post, "kind", "homologous");
  const uint64_t necessary0 = EngineCounter(post, "kind", "necessary");
  const uint64_t sufficient0 = EngineCounter(post, "kind", "sufficient");
  const uint64_t hit0 = EngineCounter(rank, "event", "hit");
  const uint64_t lookups0 = hit0 + EngineCounter(rank, "event", "miss") +
                            EngineCounter(rank, "event", "wait");
  size_t candidates = 0;
  size_t accepted = 0;
  std::vector<EntityId> conversion_set;
  Interleave(replicas, requests.size(), [&](Replica& r, size_t i) {
    SpanBuffer::current_request = static_cast<uint32_t>(ids[i]);
    Explanation x;
    {
      ScopedSpan span(r.spans, SpanName::kExplain);
      x = ServeStyleExplain(*kelpies[static_cast<size_t>(&r - &replicas[0])],
                            requests[i], &conversion_set);
    }
    const std::string line =
        serve::ExplainResponseLine(ids[i], x, conversion_set, *world.dataset);
    report.Attempt();
    if (line != expected[i]) {
      report.Fail("replayed explain differs from served response " +
                  std::to_string(ids[i]) + ":\n  served:   " + expected[i] +
                  "\n  replayed: " + line);
    }
    if (r.spans == exact) {
      candidates += x.visited_candidates;
      accepted += x.accepted ? 1 : 0;
    }
  });
  // The three replicas return the same bytes, so they did the same work:
  // a third of each engine counter's delta is one replay's.
  const double n = static_cast<double>(requests.size());
  const double per_replay = 3.0 * n;
  report.Layer("core.post_trainings_per_explain.homologous",
               (EngineCounter(post, "kind", "homologous") - homologous0) /
                   per_replay);
  report.Layer("core.post_trainings_per_explain.necessary",
               (EngineCounter(post, "kind", "necessary") - necessary0) /
                   per_replay);
  report.Layer("core.post_trainings_per_explain.sufficient",
               (EngineCounter(post, "kind", "sufficient") - sufficient0) /
                   per_replay);
  const uint64_t hit1 = EngineCounter(rank, "event", "hit");
  const uint64_t lookups1 = hit1 + EngineCounter(rank, "event", "miss") +
                            EngineCounter(rank, "event", "wait");
  report.Layer("core.rank_cache_hit_frac",
               Ratio(static_cast<double>(hit1 - hit0),
                     static_cast<double>(lookups1 - lookups0)));
  report.Layer("core.candidates_per_explain",
               static_cast<double>(candidates) / n);
  report.Layer("core.accepted_frac", static_cast<double>(accepted) / n);

  const SpanTotals totals = exact->Totals();
  const double op_ns = totals.Ns(SpanName::kExplain);
  ReportModelLayer(totals, op_ns, totals.Calls(SpanName::kExplain), world,
                   report);
  report.Layer("core.self_share",
               Ratio(totals.SelfNs(SpanName::kExplain), op_ns));
  report.Layer("models.sweep_descriptor_calls_per_op",
               static_cast<double>(quant->descriptor_calls()) / n);
  ReportReplicas(replicas, report);
  report.Detail("trace.replay_requests", n, "count");

  // Pre-Filter guard: the same selection Kelpie makes first, timed on its
  // own so it does not perturb the replays.
  Stopwatch prefilter;
  size_t selected = 0;
  for (const ExplainQuery& q : requests) {
    selected += kelpies[0]
                    ->prefilter()
                    .MostPromisingFacts(q.prediction, q.target)
                    .size();
  }
  report.Layer("core.prefilter_share",
               Ratio(prefilter.ElapsedSeconds() * 1e9, op_ns));
  report.Detail("core.prefilter_facts_per_explain",
                static_cast<double>(selected) / n, "count");
}

void ReportSparseRatio(const World& world, Report& report) {
  // Dense and sparse train back to back, so that both see the same machine.
  auto train = [&](bool sparse, std::string* bytes) {
    TrainConfig config = world.model->config();
    config.sparse_updates = sparse;
    std::unique_ptr<LinkPredictionModel> model =
        CreateModel(world.kind, *world.dataset, config);
    Rng rng(kWorldSeed);
    Stopwatch timer;
    const Status trained = model->Train(*world.dataset, rng);
    const double seconds = timer.ElapsedSeconds();
    std::ostringstream out;
    if (!trained.ok() || !model->SaveParameters(out).ok()) {
      report.Fail("training for the sparse/dense comparison failed");
    }
    *bytes = out.str();
    return seconds;
  };
  std::string dense_bytes, sparse_bytes;
  const double dense_s = train(false, &dense_bytes);
  const double sparse_s = train(true, &sparse_bytes);
  std::ostringstream world_bytes;
  (void)world.model->SaveParameters(world_bytes);
  report.Attempt();
  if (sparse_bytes != dense_bytes || dense_bytes != world_bytes.str()) {
    report.Fail("sparse-update training differs from dense training");
  }
  report.Layer("ml.sparse_train_ratio", Ratio(sparse_s, dense_s));
  report.Detail("ml.dense_train_s", dense_s, "s");
  report.Detail("ml.sparse_train_s", sparse_s, "s");
}

}  // namespace kelpie::e2e
