// update-eval-paper: cycles of a seeded KG delta, ApplyKgUpdate with a
// journal, the dataset rebuild, and a filtered evaluation of the test split.
#include <array>
#include <filesystem>
#include <functional>
#include <unordered_set>

#include "common/stopwatch.h"
#include "e2e.h"
#include "eval/evaluator.h"
#include "xp/update.h"

namespace kelpie::e2e {

namespace {

constexpr size_t kDeltaSize = 8;
constexpr size_t kCheckedFacts = 16;

/// Removes kDeltaSize existing training facts and adds kDeltaSize new facts
/// on existing (head, relation) pairs, between entities of degree at most
/// kMaxEntityDegree: re-fitting a hub's row costs as much as hundreds of
/// ordinary rows.
xp::KgDelta MakeDelta(const Dataset& dataset, Rng& rng) {
  const std::vector<Triple>& train = dataset.train();
  const GraphIndex& graph = dataset.train_graph();
  auto small = [&](EntityId e) { return graph.Degree(e) <= kMaxEntityDegree; };
  std::unordered_set<uint64_t> chosen;
  xp::KgDelta delta;
  while (delta.remove.size() < kDeltaSize) {
    const Triple& t = train[rng.UniformUint64(train.size())];
    if (!small(t.head) || !small(t.tail)) continue;
    if (chosen.insert(t.Key()).second) delta.remove.push_back(t);
  }
  while (delta.add.size() < kDeltaSize) {
    const Triple& base = train[rng.UniformUint64(train.size())];
    const Triple t(base.head, base.relation,
                   static_cast<EntityId>(
                       rng.UniformUint64(dataset.num_entities())));
    if (!small(t.head) || !small(t.tail)) continue;
    if (t.tail == t.head || dataset.IsKnown(t)) continue;
    if (chosen.insert(t.Key()).second) delta.add.push_back(t);
  }
  return delta;
}

/// Filtered rank from a full score vector, filtering with IsKnown.
int PlainRank(const std::vector<float>& scores, EntityId target,
              const std::function<bool(EntityId)>& known) {
  const float target_score = scores[static_cast<size_t>(target)];
  int rank = 0;
  for (size_t e = 0; e < scores.size(); ++e) {
    const EntityId id = static_cast<EntityId>(e);
    if (id != target && known(id)) continue;
    if (scores[e] >= target_score) ++rank;
  }
  return rank;
}

/// Evaluate() on kCheckedFacts seeded test facts must equal ranks computed
/// plainly, and so must the timed EvaluateTest() pass at those facts.
void CheckEvaluation(const LinkPredictionModel& model, const Dataset& dataset,
                     const EvalResult& pass, Rng& rng, Report& report) {
  const std::vector<Triple>& test = dataset.test();
  std::vector<size_t> picks;
  std::vector<Triple> facts;
  for (size_t i = 0; i < kCheckedFacts; ++i) {
    picks.push_back(rng.UniformUint64(test.size()));
    facts.push_back(test[picks.back()]);
  }
  const EvalResult checked = Evaluate(model, dataset, facts);
  std::vector<float> scores(model.num_entities());
  for (size_t i = 0; i < facts.size(); ++i) {
    const Triple& f = facts[i];
    model.ScoreAllTails(f.head, f.relation, scores);
    const int tail = PlainRank(scores, f.tail, [&](EntityId e) {
      return dataset.IsKnown(Triple(f.head, f.relation, e));
    });
    model.ScoreAllHeads(f.relation, f.tail, scores);
    const int head = PlainRank(scores, f.head, [&](EntityId e) {
      return dataset.IsKnown(Triple(e, f.relation, f.tail));
    });
    report.Attempt();
    if (checked.tail_ranks.ranks()[i] != tail ||
        checked.head_ranks.ranks()[i] != head ||
        pass.tail_ranks.ranks()[picks[i]] != tail ||
        pass.head_ranks.ranks()[picks[i]] != head) {
      report.Fail("evaluation rank differs from plain recomputation for " +
                  dataset.TripleToString(f));
    }
  }
}

struct CycleTimes {
  double update_s = 0.0;
  double rebuild_s = 0.0;
  double eval_s = 0.0;
};

/// Replays the cycles of `deltas` from the world's initial model and graph
/// on the three replicas, interleaved, and byte-compares each evaluation
/// with `expected_ranks`. Replica 2 evaluates on the quantized rank path.
void TraceCycles(const World& world, const std::string& journal,
                 uint64_t seed, const std::vector<xp::KgDelta>& deltas,
                 const std::vector<std::vector<int>>& expected_ranks,
                 std::array<Replica, 3>& replicas, Report& report) {
  std::array<const Dataset*, 3> current;
  current.fill(world.dataset.get());
  std::array<std::unique_ptr<Dataset>, 3> owned;
  Interleave(replicas, deltas.size(), [&](Replica& r, size_t c) {
    const size_t k = static_cast<size_t>(&r - &replicas[0]);
    SpanBuffer::current_request = static_cast<uint32_t>(c + 1);
    std::filesystem::remove(journal);
    ScopedSpan cycle(r.spans, SpanName::kCycle);
    {
      ScopedSpan span(r.spans, SpanName::kUpdate);
      xp::UpdateOptions update;
      update.seed = seed;
      update.journal_path = journal;
      if (!xp::ApplyKgUpdate(r.model(), *current[k], deltas[c], update).ok()) {
        report.Fail("replayed update failed");
      }
    }
    std::unique_ptr<Dataset> next;
    {
      ScopedSpan span(r.spans, SpanName::kRebuild);
      next = std::make_unique<Dataset>(
          current[k]->WithModifiedTraining(deltas[c].remove, deltas[c].add));
    }
    EvalResult pass;
    {
      ScopedSpan span(r.spans, SpanName::kEvaluate);
      EvalOptions eval_options;
      eval_options.quantized_shortlist = k == 2;
      pass = EvaluateTest(r.model(), *next, eval_options);
    }
    std::vector<int> ranks = pass.tail_ranks.ranks();
    ranks.insert(ranks.end(), pass.head_ranks.ranks().begin(),
                 pass.head_ranks.ranks().end());
    report.Attempt();
    if (ranks != expected_ranks[c]) {
      report.Fail("replayed evaluation differs in cycle " +
                  std::to_string(c));
    }
    owned[k] = std::move(next);
    current[k] = owned[k].get();
  });
}

}  // namespace

int RunUpdateEvalPaper(const Options& options, Report& report,
                       TraceFile& trace) {
  const std::string model_path = options.workdir + "/model.bin";
  const std::string journal = options.workdir + "/update.journal";
  std::vector<SetupTimes> times;
  World world;
  std::unique_ptr<LinkPredictionModel> model;
  for (size_t r = 0; r < options.setup_repeats; ++r) {
    model.reset();
    world = World();
    SetupTimes t;
    world = BuildWorld(ModelKind::kTransE, 21.0, model_path, &t);
    Stopwatch load;
    model = LoadOrDie(model_path);
    t.load_s = load.ElapsedSeconds();
    times.push_back(t);
  }
  ReportSetup(times, report);

  // Cycles run until their timed phases fill the window; delta generation
  // and output checks are outside it.
  std::vector<xp::KgDelta> deltas;
  std::vector<std::vector<int>> cycle_ranks;
  std::vector<CycleTimes> cycles;
  std::vector<double> update_ms;
  double rows = 0.0;
  double journal_bytes = 0.0;
  double measured_s = 0.0;
  size_t ranks = 0;
  double eval_s = 0.0;
  const Dataset* current = world.dataset.get();
  std::unique_ptr<Dataset> owned;
  Rng check_rng(options.seed ^ 0xE7A1C4ECULL);
  while (measured_s < options.seconds) {
    Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + deltas.size());
    deltas.push_back(MakeDelta(*current, rng));
    CycleTimes t;
    xp::UpdateOptions update;
    update.seed = options.seed;
    update.journal_path = journal;
    std::filesystem::remove(journal);
    Stopwatch timer;
    Result<xp::UpdateReport> applied =
        xp::ApplyKgUpdate(*model, *current, deltas.back(), update);
    t.update_s = timer.ElapsedSeconds();
    report.Attempt();
    if (!applied.ok()) {
      report.Fail("update: " + applied.status().ToString());
    } else {
      rows += static_cast<double>(applied->rows_recomputed);
    }
    std::error_code ec;
    journal_bytes +=
        static_cast<double>(std::filesystem::file_size(journal, ec));
    timer.Restart();
    auto next = std::make_unique<Dataset>(current->WithModifiedTraining(
        deltas.back().remove, deltas.back().add));
    t.rebuild_s = timer.ElapsedSeconds();
    timer.Restart();
    const EvalResult pass = EvaluateTest(*model, *next);
    t.eval_s = timer.ElapsedSeconds();
    report.Attempt();
    CheckEvaluation(*model, *next, pass, check_rng, report);

    std::vector<int> all = pass.tail_ranks.ranks();
    all.insert(all.end(), pass.head_ranks.ranks().begin(),
               pass.head_ranks.ranks().end());
    ranks += all.size();
    cycle_ranks.push_back(std::move(all));
    eval_s += t.eval_s;
    measured_s += t.update_s + t.rebuild_s + t.eval_s;
    update_ms.push_back(t.update_s * 1e3);
    cycles.push_back(t);
    owned = std::move(next);
    current = owned.get();
  }
  std::filesystem::remove(journal);
  report.EndToEnd("peak_rss_mb", PeakRssMb());

  const double n = static_cast<double>(cycles.size());
  std::vector<double> rebuild_ms;
  for (const CycleTimes& t : cycles) rebuild_ms.push_back(t.rebuild_s * 1e3);
  const double ranks_per_s = Ratio(static_cast<double>(ranks), eval_s);
  std::vector<double> pass_ranks_per_s;
  for (size_t c = 0; c < cycles.size(); ++c) {
    pass_ranks_per_s.push_back(
        Ratio(static_cast<double>(cycle_ranks[c].size()), cycles[c].eval_s));
  }
  report.EndToEnd("main_per_s", Median(pass_ranks_per_s));
  report.EndToEnd("main_p50_ms", Percentile(update_ms, 0.5));
  report.Detail("window_s", measured_s, "s");
  report.Detail("cycles", n, "count");
  report.Detail("update_p50_ms", Percentile(update_ms, 0.5), "ms");
  report.Detail("eval_ranks_per_s", ranks_per_s, "1/s");
  report.Detail("eval_ranks_per_pass", Ratio(static_cast<double>(ranks), n),
                "count");
  report.Detail("kgraph.rebuild_ms_mean", Mean(rebuild_ms), "ms");
  report.Layer("xp.update_rows_per_delta", rows / n);
  report.Layer("xp.journal_bytes_per_update", journal_bytes / n);

  if (options.trace_path.empty()) return 0;
  // Replay the first eighth of the cycles from the initial model and graph.
  const size_t k = std::max<size_t>(1, (cycles.size() + 7) / 8);
  deltas.resize(k);
  SpanBuffer* exact = trace.NewBuffer("timed_exact");
  SpanBuffer* quant = trace.NewBuffer("timed_quant");
  std::array<Replica, 3> replicas = {Replica(world.model_path, nullptr),
                                     Replica(world.model_path, exact),
                                     Replica(world.model_path, quant)};
  TraceCycles(world, journal, options.seed, deltas, cycle_ranks, replicas,
              report);
  std::filesystem::remove(journal);

  const SpanTotals totals = exact->Totals();
  const double op_ns = totals.Ns(SpanName::kCycle);
  ReportModelLayer(totals, op_ns, totals.Calls(SpanName::kCycle), world,
                   report);
  report.Layer("xp.self_share", Ratio(totals.SelfNs(SpanName::kUpdate) +
                                          totals.SelfNs(SpanName::kCycle),
                                      op_ns));
  report.Layer("xp.update_post_train_share",
               Ratio(totals.Ns(SpanName::kPostTrain),
                     totals.Ns(SpanName::kUpdate)));
  report.Layer("kgraph.rebuild_share",
               Ratio(totals.Ns(SpanName::kRebuild), op_ns));
  report.Layer("eval.self_share",
               Ratio(totals.SelfNs(SpanName::kEvaluate), op_ns));
  report.Layer("models.sweep_descriptor_calls_per_op",
               Ratio(static_cast<double>(quant->descriptor_calls()),
                     static_cast<double>(k)));
  ReportReplicas(replicas, report);
  // Only evaluation differs between the exact and quantized replicas, so
  // their ratio is taken over the evaluate spans.
  report.Layer("eval.quant_ratio",
               Ratio(quant->Totals().Ns(SpanName::kEvaluate),
                     totals.Ns(SpanName::kEvaluate)));
  report.Detail("trace.replay_cycles", static_cast<double>(k), "count");
  return 0;
}

}  // namespace kelpie::e2e
