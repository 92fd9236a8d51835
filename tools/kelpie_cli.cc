// kelpie — command-line interface to the library.
//
// Subcommands:
//   generate  --dataset FB15k --scale 0.55 --seed 7 --out DIR
//       Writes a synthetic benchmark stand-in as train/valid/test TSV.
//   train     --data DIR --model ComplEx --seed 42 --out model.bin
//       Trains a model on a TSV dataset and saves its parameters.
//   evaluate  --data DIR --model-file model.bin [--no-heads]
//       Filtered H@1 / H@10 / MRR over the test split.
//   explain   --data DIR --model-file model.bin
//             --head H --relation R --tail T [--sufficient] [--head-query]
//       Extracts a Kelpie explanation for one prediction.
//   audit     --data DIR --model-file model.bin --relation R [--limit N]
//       Explains correct test predictions of a relation and mines the
//       evidence patterns (bias audit).
//   xp        --data DIR --model-file model.bin --scenario necessary
//             --journal run.jnl [--resume]
//       End-to-end experiment run with a crash-safe progress journal.
//   score     --data DIR --model-file model.bin --head H --relation R
//             --tail T [--canonical]
//       Scores one triple (--canonical prints the serve wire format).
//   serve     --data DIR --model-file model.bin [--port N] [--pool N]
//       Serves score/explain requests over newline-delimited JSON on TCP,
//       batching them across a pool of N pre-loaded model instances, one
//       dispatcher thread each.
//   serve-client --port N [--connections N] [--in FILE]
//       Drives a serve endpoint with request lines; prints responses
//       sorted by id.
//   update    --data DIR --model-file model.bin --delta FILE
//             [--out model.bin] [--journal FILE] [--resume]
//       Applies a KG delta (added/removed training triples) to a trained
//       model by incrementally re-fitting the affected entities' rows —
//       no full retrain. Journaled, resumable, cache-invalidating.
//   metrics   [--demo] [--json] [--out FILE]
//       Renders the process metrics registry (Prometheus text exposition,
//       or the combined metrics + trace JSON snapshot with --json).
//
// `evaluate`, `explain`, `serve` and `xp` accept --metrics-out FILE: the
// trace collector is armed for the command and the combined metrics + span
// snapshot is written as JSON when it finishes (also on failure, so
// truncated runs keep their observability).
//
// Verbs() declares every flag each command reads; any other flag is an
// InvalidArgument, and `kelpie` with no arguments prints each synopsis.
//
// Every command reports failures as a one-line `error: ...` on stderr and
// exits nonzero; bad inputs never abort.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "baselines/explainer.h"
#include "common/atomic_file.h"
#include "common/budget.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/kelpie.h"
#include "core/relevance_cache.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "eval/breakdown.h"
#include "eval/evaluator.h"
#include "kgraph/io.h"
#include "ml/checkpoint.h"
#include "models/factory.h"
#include "models/model_store.h"
#include "serve/client.h"
#include "serve/line_protocol.h"
#include "serve/server.h"
#include "serve/tcp_server.h"
#include "xp/pattern_miner.h"
#include "xp/pipeline.h"
#include "xp/update.h"

namespace kelpie {
namespace {

/// One flag a verb reads. `value` names its argument in the usage synopsis;
/// nullptr marks a switch, which takes no value. `required` only shapes the
/// synopsis: each command checks its own required flags.
struct Flag {
  const char* name;
  const char* value;
  bool required = false;
};

/// A command and every flag it reads. `operand` is the word a command takes
/// before its flags (`kelpie cache stats ...`); empty for the others.
struct Verb {
  const char* name;
  const char* operand;
  std::vector<Flag> flags;
};

/// The one declaration of the CLI surface: Args rejects any flag its verb
/// does not list here, and Usage() prints each synopsis from it.
const std::vector<Verb>& Verbs() {
  static const std::vector<Verb> verbs = {
      {"generate", "",
       {{"dataset", "NAME"}, {"scale", "S"}, {"seed", "N"},
        {"out", "DIR", true}}},
      {"train", "",
       {{"data", "DIR", true}, {"model", "NAME"}, {"seed", "N"},
        {"out", "FILE", true}, {"epochs", "N"}, {"dim", "N"},
        {"grad-clip", "X"}, {"max-recoveries", "N"},
        {"checkpoint", "DIR"}, {"checkpoint-interval", "N"},
        {"resume", nullptr}, {"sparse", nullptr}}},
      {"evaluate", "",
       {{"data", "DIR", true}, {"model-file", "FILE", true},
        {"no-heads", nullptr}, {"per-relation", nullptr}, {"threads", "N"},
        {"metrics-out", "FILE"}, {"quant-shortlist", nullptr}}},
      {"explain", "",
       {{"data", "DIR", true}, {"model-file", "FILE", true},
        {"head", "H", true}, {"relation", "R", true}, {"tail", "T", true},
        {"sufficient", nullptr}, {"head-query", nullptr}, {"threads", "N"},
        {"work-budget", "N"}, {"per-prediction-timeout", "S"},
        {"metrics-out", "FILE"}, {"canonical", nullptr}, {"id", "N"},
        {"relevance-cache", "FILE"}, {"cache-bytes", "N"},
        {"warm-mimics", nullptr}, {"quant-shortlist", nullptr}}},
      {"score", "",
       {{"data", "DIR", true}, {"model-file", "FILE", true},
        {"head", "H", true}, {"relation", "R", true}, {"tail", "T", true},
        {"canonical", nullptr}, {"id", "N"}}},
      {"serve", "",
       {{"data", "DIR", true}, {"model-file", "FILE", true},
        {"host", "ADDR"}, {"port", "N"}, {"pool", "N"}, {"max-queue", "N"},
        {"max-batch", "N"}, {"threads", "N"}, {"metrics-out", "FILE"},
        {"relevance-cache", "FILE"}, {"cache-bytes", "N"},
        {"warm-mimics", nullptr}, {"quant-shortlist", nullptr}}},
      {"serve-client", "",
       {{"port", "N", true}, {"host", "ADDR"}, {"connections", "N"},
        {"in", "FILE"}, {"retries", "N"}, {"retry-backoff", "S"},
        {"retry-backoff-cap", "S"}, {"retry-seed", "N"}}},
      {"cache", "stats|purge", {{"file", "FILE", true}}},
      {"update", "",
       {{"data", "DIR", true}, {"model-file", "FILE", true},
        {"delta", "FILE", true}, {"out", "FILE"}, {"out-data", "DIR"},
        {"seed", "N"}, {"journal", "FILE"}, {"resume", nullptr},
        {"relevance-cache", "FILE"}, {"cache-bytes", "N"},
        {"warm-mimics", nullptr}}},
      {"audit", "",
       {{"data", "DIR", true}, {"model-file", "FILE", true},
        {"relation", "R", true}, {"limit", "N"}, {"threads", "N"},
        {"seed", "N"}}},
      {"xp", "",
       {{"data", "DIR", true}, {"model-file", "FILE", true},
        {"scenario", "necessary|sufficient"}, {"journal", "FILE", true},
        {"resume", nullptr}, {"sample", "N"}, {"seed", "N"},
        {"conversion-set", "N"}, {"threads", "N"}, {"work-budget", "N"},
        {"per-prediction-timeout", "S"}, {"deadline", "S"},
        {"retry-truncated", nullptr}, {"metrics-out", "FILE"},
        {"warm-start", "DIR"}, {"warm-epochs", "N"},
        {"quant-shortlist", nullptr}}},
      {"metrics", "",
       {{"demo", nullptr}, {"json", nullptr}, {"out", "FILE"}}},
  };
  return verbs;
}

const Verb* FindVerb(const std::string& name) {
  for (const Verb& verb : Verbs()) {
    if (name == verb.name) return &verb;
  }
  return nullptr;
}

/// --flag value parser: flags may appear in any order; every flag takes a
/// value except the verb's switches, and a flag the verb does not declare
/// is an InvalidArgument.
class Args {
 public:
  /// `start` is the first argv index to parse: 2 for `kelpie <cmd> ...`,
  /// 3 for a command with an operand (`kelpie cache stats ...`).
  Args(int argc, char** argv, int start, const Verb& verb) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        status_ = Status::InvalidArgument("unexpected argument: " + key);
        return;
      }
      key = key.substr(2);
      auto flag = std::find_if(
          verb.flags.begin(), verb.flags.end(),
          [&key](const Flag& f) { return key == f.name; });
      if (flag == verb.flags.end()) {
        status_ = Status::InvalidArgument("unknown flag --" + key +
                                          " for kelpie " + verb.name);
        return;
      }
      if (flag->value == nullptr) {
        values_[key] = "1";
      } else if (i + 1 < argc) {
        values_[key] = argv[++i];
      } else {
        status_ = Status::InvalidArgument("flag --" + key + " needs a value");
        return;
      }
    }
  }

  const Status& status() const { return status_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  Result<double> GetDouble(const std::string& key, double fallback) const {
    if (!Has(key)) return fallback;
    const std::string raw = Get(key);
    try {
      size_t pos = 0;
      double value = std::stod(raw, &pos);
      if (pos == raw.size()) return value;
    } catch (const std::exception&) {
    }
    return Status::InvalidArgument("flag --" + key + " needs a number, got '" +
                                   raw + "'");
  }
  Result<uint64_t> GetU64(const std::string& key, uint64_t fallback) const {
    if (!Has(key)) return fallback;
    const std::string raw = Get(key);
    // stoull silently wraps negatives; reject them up front.
    if (raw.empty() || raw[0] == '-') {
      return Status::InvalidArgument("flag --" + key +
                                     " needs a non-negative integer, got '" +
                                     raw + "'");
    }
    try {
      size_t pos = 0;
      uint64_t value = std::stoull(raw, &pos);
      if (pos == raw.size()) return value;
    } catch (const std::exception&) {
    }
    return Status::InvalidArgument("flag --" + key +
                                   " needs a non-negative integer, got '" +
                                   raw + "'");
  }

 private:
  std::map<std::string, std::string> values_;
  Status status_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Crash-safe text output: snapshot files (metrics, rendered reports) go
/// through the same temp-file + rename discipline as model/journal writers,
/// so a reader never sees a torn snapshot and an interrupted run keeps the
/// previous one.
Status WriteTextFile(const std::string& path, const std::string& content) {
  return WriteFileAtomic(path, content);
}

/// --metrics-out support: arms the trace collector for the command's
/// lifetime and writes the combined metrics + span JSON snapshot when the
/// command finishes. The snapshot is written even when the command fails,
/// so interrupted or truncated runs keep their observability; the
/// command's own status wins over a snapshot write error.
class MetricsSink {
 public:
  explicit MetricsSink(const Args& args) : path_(args.Get("metrics-out")) {
    if (!path_.empty()) {
      trace::Collector::Global().Enable();
    }
  }

  Status Finish(Status command_status) const {
    if (path_.empty()) return command_status;
    Status write_status =
        WriteTextFile(path_, trace::ObservabilitySnapshotJson(false) + "\n");
    return command_status.ok() ? write_status : command_status;
  }

 private:
  std::string path_;
};

/// --relevance-cache / --cache-bytes support (explain, serve): opens the
/// persistent post-training cache keyed by the model's fingerprint.
/// Returns nullptr when the flag is absent. Warm-start mimics produce
/// different (still deterministic) values than cold ones, so the warm mode
/// salts the fingerprint: cold and warm entries never answer each other.
Result<std::shared_ptr<RelevanceCache>> OpenCacheFlag(
    const Args& args, const LinkPredictionModel& model, uint64_t engine_seed,
    bool warm_mimics = false) {
  if (!args.Has("relevance-cache")) {
    return std::shared_ptr<RelevanceCache>(nullptr);
  }
  RelevanceCacheOptions options;
  options.path = args.Get("relevance-cache");
  options.fingerprint = ComputeModelFingerprint(model, engine_seed);
  if (warm_mimics) {
    options.fingerprint ^= 0x57A1213BD5A11EDull;  // "warm salt"
  }
  uint64_t max_bytes = 0;
  KELPIE_ASSIGN_OR_RETURN(max_bytes,
                          args.GetU64("cache-bytes", 64ull << 20));
  options.max_bytes = max_bytes;
  return RelevanceCache::Open(std::move(options));
}

/// Persists the cache at command end. A failed flush costs the next run its
/// warm start, never this run's result — warn and move on.
void FlushCache(const std::shared_ptr<RelevanceCache>& cache) {
  if (cache == nullptr) return;
  Status flushed = cache->Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "warning: relevance-cache flush failed: %s\n",
                 flushed.ToString().c_str());
  }
}

Result<Dataset> LoadData(const Args& args) {
  if (!args.Has("data")) {
    return Status::InvalidArgument("--data DIR is required");
  }
  return LoadDatasetTsv("cli-dataset", args.Get("data"));
}

/// Extraction-limit flags shared by `explain` and `xp`. The returned limits
/// carry `cancel`, which the caller has wired to SIGINT/SIGTERM, so Ctrl-C
/// stops an in-flight extraction at the next candidate boundary.
Result<ExtractionLimits> ParseExtractionLimits(const Args& args,
                                               const CancelToken& cancel) {
  ExtractionLimits limits;
  KELPIE_ASSIGN_OR_RETURN(limits.work_budget, args.GetU64("work-budget", 0));
  KELPIE_ASSIGN_OR_RETURN(limits.timeout_seconds,
                          args.GetDouble("per-prediction-timeout", 0.0));
  if (limits.timeout_seconds < 0.0) {
    return Status::InvalidArgument(
        "--per-prediction-timeout must be non-negative");
  }
  limits.cancel = cancel;
  return limits;
}

/// One line after an xp run when any extraction hit a limit, pointing at
/// the upgrade path.
void PrintTruncationSummary(const std::vector<Explanation>& explanations) {
  size_t truncated = 0;
  for (const Explanation& x : explanations) {
    if (x.completeness != Completeness::kComplete) ++truncated;
  }
  if (truncated > 0) {
    std::printf("  %zu/%zu extractions truncated by limits; re-run with "
                "--resume --retry-truncated and larger limits to upgrade\n",
                truncated, explanations.size());
  }
}

/// How an extraction ended, for explanation summaries: empty for a complete
/// run, otherwise a short "truncated" annotation.
std::string CompletenessSummary(const Explanation& x) {
  if (x.completeness == Completeness::kComplete) return "";
  std::string s = " [";
  s += CompletenessName(x.completeness);
  s += ", " + std::to_string(x.skipped_candidates) + " candidates skipped]";
  return s;
}

Status CmdGenerate(const Args& args) {
  std::string name = args.Get("dataset", "FB15k-237");
  BenchmarkDataset which = BenchmarkDataset::kFb15k237;
  bool found = false;
  for (BenchmarkDataset d : AllBenchmarkDatasets()) {
    if (BenchmarkDatasetName(d) == name) {
      which = d;
      found = true;
    }
  }
  if (!found) return Status::InvalidArgument("unknown dataset: " + name);
  if (!args.Has("out")) {
    return Status::InvalidArgument("--out DIR is required");
  }
  double scale = 0.0;
  KELPIE_ASSIGN_OR_RETURN(scale, args.GetDouble("scale", 0.55));
  if (!(scale > 0.0) || scale > 100.0) {
    return Status::InvalidArgument("--scale must be in (0, 100], got " +
                                   args.Get("scale"));
  }
  uint64_t seed = 0;
  KELPIE_ASSIGN_OR_RETURN(seed, args.GetU64("seed", 7));
  // GenerateDataset (not MakeBenchmark, which CHECK-aborts) so degenerate
  // spec/scale combinations surface as an error message.
  Result<Dataset> dataset = GenerateDataset(BenchmarkSpec(which, scale, seed));
  if (!dataset.ok()) return dataset.status();
  std::error_code ec;
  std::filesystem::create_directories(args.Get("out"), ec);
  if (ec) {
    return Status::IoError("cannot create " + args.Get("out") + ": " +
                           ec.message());
  }
  KELPIE_RETURN_IF_ERROR(SaveDatasetTsv(*dataset, args.Get("out")));
  DatasetStats stats = ComputeStats(*dataset);
  std::printf("wrote %s to %s: %zu entities, %zu relations, %zu/%zu/%zu "
              "train/valid/test facts\n",
              name.c_str(), args.Get("out").c_str(), stats.num_entities,
              stats.num_relations, stats.num_train, stats.num_valid,
              stats.num_test);
  return Status::Ok();
}

Status CmdTrain(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  Result<ModelKind> kind = ParseModelKind(args.Get("model", "ComplEx"));
  if (!kind.ok()) return kind.status();
  if (!args.Has("out")) {
    return Status::InvalidArgument("--out FILE is required");
  }

  TrainConfig config = DefaultConfig(kind.value(), *dataset);
  KELPIE_ASSIGN_OR_RETURN(config.epochs, args.GetU64("epochs", config.epochs));
  KELPIE_ASSIGN_OR_RETURN(config.dim, args.GetU64("dim", config.dim));
  double grad_clip = 0.0;
  KELPIE_ASSIGN_OR_RETURN(grad_clip,
                          args.GetDouble("grad-clip", config.grad_clip_norm));
  config.grad_clip_norm = static_cast<float>(grad_clip);
  uint64_t max_recoveries = 0;
  KELPIE_ASSIGN_OR_RETURN(
      max_recoveries,
      args.GetU64("max-recoveries",
                  static_cast<uint64_t>(config.max_recoveries)));
  config.max_recoveries = static_cast<int>(max_recoveries);
  // Route embedding gradients through the touched-row sparse optimizers.
  // Byte-identical to the dense path by construction, so the flag only
  // changes memory behavior, never the saved model.
  if (args.Has("sparse")) config.sparse_updates = true;
  KELPIE_RETURN_IF_ERROR(ValidateConfig(kind.value(), config,
                                        dataset->num_entities(),
                                        dataset->num_relations()));

  auto model = CreateModel(kind.value(), *dataset, config);
  uint64_t seed = 0;
  KELPIE_ASSIGN_OR_RETURN(seed, args.GetU64("seed", 42));
  Rng rng(seed);

  // Crash-safe checkpointing: --checkpoint DIR writes train.ckpt at every
  // interval boundary; --resume picks a matching checkpoint back up, and a
  // resumed run converges to a model byte-identical to an uninterrupted
  // one. The fingerprint ties the checkpoint to this exact setup.
  std::unique_ptr<TrainCheckpointer> checkpointer;
  TrainControl control;
  if (args.Has("checkpoint")) {
    CheckpointOptions ckpt;
    ckpt.directory = args.Get("checkpoint");
    uint64_t interval = 0;
    KELPIE_ASSIGN_OR_RETURN(interval, args.GetU64("checkpoint-interval", 1));
    ckpt.interval_epochs = static_cast<size_t>(interval);
    ckpt.resume = args.Has("resume");
    ckpt.fingerprint =
        ComputeTrainFingerprint(kind.value(), config, *dataset, seed);
    checkpointer = std::make_unique<TrainCheckpointer>(std::move(ckpt));
    control.checkpointer = checkpointer.get();
  } else if (args.Has("resume")) {
    return Status::InvalidArgument("--resume requires --checkpoint DIR");
  }
  // Drain semantics, mirroring serve: the first SIGINT/SIGTERM finishes
  // the in-flight epoch, flushes the last-good state (checkpoint or
  // .partial model below), and exits clean; a second signal exits hard.
  WireCancelToSignals(control.cancel);

  std::printf("training %s on %zu facts (%zu epochs, dim %zu)...\n",
              args.Get("model", "ComplEx").c_str(), dataset->train().size(),
              config.epochs, config.dim);
  KELPIE_RETURN_IF_ERROR(model->Train(*dataset, rng, control));
  if (checkpointer != nullptr && checkpointer->options().resume) {
    if (checkpointer->last_restore_outcome() ==
        CheckpointRestoreOutcome::kRestored) {
      std::printf("resumed from checkpoint at epoch %llu\n",
                  static_cast<unsigned long long>(
                      checkpointer->restored_epoch()));
    } else {
      std::printf(
          "checkpoint restore: %s; trained from scratch\n",
          std::string(CheckpointRestoreOutcomeName(
                          checkpointer->last_restore_outcome()))
              .c_str());
    }
  }
  const TrainReport& report = model->last_train_report();
  if (report.recoveries > 0) {
    std::printf("recovered from %d divergence(s); final lr scale %.4f\n",
                report.recoveries, report.lr_scale);
  }
  std::printf("completeness: %s\n",
              std::string(CompletenessName(report.completeness)).c_str());
  if (report.completeness == Completeness::kCancelled) {
    // Cancelled runs never overwrite --out. The last-good state is already
    // durable in the checkpoint when one is configured; otherwise flush it
    // next to the target so the epochs run so far are not discarded.
    if (checkpointer != nullptr) {
      std::printf("cancelled; resume with --resume (checkpoint in %s)\n",
                  args.Get("checkpoint").c_str());
    } else {
      const std::string partial = args.Get("out") + ".partial";
      KELPIE_RETURN_IF_ERROR(SaveModel(*model, kind.value(), partial));
      std::printf("cancelled; partial model saved to %s\n", partial.c_str());
    }
    return Status::Cancelled("training cancelled by signal");
  }
  KELPIE_RETURN_IF_ERROR(SaveModel(*model, kind.value(), args.Get("out")));
  std::printf("saved to %s\n", args.Get("out").c_str());
  return Status::Ok();
}

Status CmdEvaluate(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  Result<std::unique_ptr<LinkPredictionModel>> model =
      LoadModel(args.Get("model-file"));
  if (!model.ok()) return model.status();
  KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, *dataset));
  EvalOptions options;
  options.include_heads = !args.Has("no-heads");
  uint64_t threads = 0;
  KELPIE_ASSIGN_OR_RETURN(threads, args.GetU64("threads", 1));
  options.num_threads = threads;
  options.quantized_shortlist = args.Has("quant-shortlist");
  EvalResult result = EvaluateTest(**model, *dataset, options);
  std::printf("%s on %zu test facts: H@1 %.3f  H@10 %.3f  MRR %.3f\n",
              std::string((*model)->Name()).c_str(),
              dataset->test().size(), result.HitsAt1(), result.HitsAt(10),
              result.Mrr());
  if (args.Has("per-relation")) {
    std::vector<RelationMetrics> rows = EvaluatePerRelation(
        **model, *dataset, dataset->test(), options.include_heads);
    std::printf("%s", FormatBreakdown(rows, *dataset).c_str());
  }
  return Status::Ok();
}

Result<Triple> ParsePredictionFlags(const Args& args, const Dataset& dataset) {
  int32_t h, r, t;
  KELPIE_ASSIGN_OR_RETURN(h, dataset.entities().Find(args.Get("head")));
  KELPIE_ASSIGN_OR_RETURN(r, dataset.relations().Find(args.Get("relation")));
  KELPIE_ASSIGN_OR_RETURN(t, dataset.entities().Find(args.Get("tail")));
  return Triple(h, r, t);
}

Status CmdExplain(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  Result<std::unique_ptr<LinkPredictionModel>> model =
      LoadModel(args.Get("model-file"));
  if (!model.ok()) return model.status();
  KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, *dataset));
  Result<Triple> prediction = ParsePredictionFlags(args, *dataset);
  if (!prediction.ok()) return prediction.status();

  PredictionTarget target = args.Has("head-query")
                                ? PredictionTarget::kHead
                                : PredictionTarget::kTail;
  KelpieOptions options;
  KELPIE_ASSIGN_OR_RETURN(options.engine.num_threads,
                          args.GetU64("threads", 1));
  options.engine.warm_start_mimics = args.Has("warm-mimics");
  options.engine.quantized_shortlist = args.Has("quant-shortlist");
  KELPIE_ASSIGN_OR_RETURN(
      options.engine.relevance_cache,
      OpenCacheFlag(args, **model, options.engine.seed,
                    options.engine.warm_start_mimics));
  CancelToken cancel;
  WireCancelToSignals(cancel);
  ExtractionLimits limits;
  KELPIE_ASSIGN_OR_RETURN(limits, ParseExtractionLimits(args, cancel));
  Kelpie kelpie(**model, *dataset, options);
  uint64_t canonical_id = 0;
  KELPIE_ASSIGN_OR_RETURN(canonical_id, args.GetU64("id", 0));
  Explanation x;
  std::vector<EntityId> converted;
  if (args.Has("sufficient")) {
    x = kelpie.ExplainSufficient(*prediction, target, &converted, nullptr,
                                 limits);
  } else {
    x = kelpie.ExplainNecessary(*prediction, target, nullptr, limits);
  }
  // Persist before printing: every exit path below (including cancelled
  // best-effort results) keeps the relevance work it already paid for.
  FlushCache(options.engine.relevance_cache);
  if (args.Has("canonical")) {
    // The exact bytes `kelpie serve` sends for this request: the serve-smoke
    // CI job diffs this one-shot output against the served responses.
    std::printf("%s\n",
                serve::ExplainResponseLine(canonical_id, x, converted, *dataset)
                    .c_str());
    if (x.completeness == Completeness::kCancelled) {
      return Status::Cancelled("extraction cancelled");
    }
    return Status::Ok();
  }
  if (args.Has("sufficient")) {
    std::printf("sufficient explanation (over %zu conversion entities):\n",
                converted.size());
  } else {
    std::printf("necessary explanation:\n");
  }
  if (x.empty()) {
    if (x.completeness == Completeness::kComplete) {
      std::printf("  (none found — the source entity has no usable facts)\n");
    } else {
      std::printf(
          "  (none found before the extraction was stopped:%s — raise the "
          "limits and retry)\n",
          CompletenessSummary(x).c_str());
    }
    if (x.completeness == Completeness::kCancelled) {
      return Status::Cancelled("extraction cancelled before any result");
    }
    return Status::Ok();
  }
  for (const Triple& fact : x.facts) {
    std::printf("  %s\n", dataset->TripleToString(fact).c_str());
  }
  std::printf("relevance %.2f, %s, %zu post-trainings, %.2fs%s\n",
              x.relevance, x.accepted ? "accepted" : "best-effort",
              x.post_trainings, x.seconds, CompletenessSummary(x).c_str());
  if (x.completeness == Completeness::kCancelled) {
    return Status::Cancelled("extraction cancelled; best-so-far shown above");
  }
  return Status::Ok();
}

Status CmdScore(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  Result<std::unique_ptr<LinkPredictionModel>> model =
      LoadModel(args.Get("model-file"));
  if (!model.ok()) return model.status();
  KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, *dataset));
  Result<Triple> prediction = ParsePredictionFlags(args, *dataset);
  if (!prediction.ok()) return prediction.status();
  const float score = (*model)->Score(*prediction);
  if (args.Has("canonical")) {
    uint64_t id = 0;
    KELPIE_ASSIGN_OR_RETURN(id, args.GetU64("id", 0));
    std::printf("%s\n", serve::ScoreResponseLine(id, score).c_str());
  } else {
    std::printf("%s scores %s\n",
                dataset->TripleToString(*prediction).c_str(),
                metrics::FormatDouble(score).c_str());
  }
  return Status::Ok();
}

Status CmdServe(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  if (!args.Has("model-file")) {
    return Status::InvalidArgument("--model-file FILE is required");
  }

  serve::ServerOptions options;
  uint64_t pool = 0, max_queue = 0, max_batch = 0;
  KELPIE_ASSIGN_OR_RETURN(pool, args.GetU64("pool", 2));
  KELPIE_ASSIGN_OR_RETURN(max_queue, args.GetU64("max-queue", 256));
  KELPIE_ASSIGN_OR_RETURN(max_batch, args.GetU64("max-batch", 16));
  KELPIE_ASSIGN_OR_RETURN(options.kelpie.engine.num_threads,
                          args.GetU64("threads", 1));
  if (pool == 0) return Status::InvalidArgument("--pool must be >= 1");
  if (max_batch == 0) {
    return Status::InvalidArgument("--max-batch must be >= 1");
  }
  options.pool_size = pool;
  options.max_queue_depth = max_queue;
  options.max_batch = max_batch;
  options.kelpie.engine.warm_start_mimics = args.Has("warm-mimics");
  options.kelpie.engine.quantized_shortlist = args.Has("quant-shortlist");
  if (args.Has("relevance-cache")) {
    // The pool loads its own model copies; this load exists only to compute
    // the cache fingerprint, and is dropped before the server starts.
    Result<std::unique_ptr<LinkPredictionModel>> model =
        LoadModel(args.Get("model-file"));
    if (!model.ok()) return model.status();
    KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, *dataset));
    KELPIE_ASSIGN_OR_RETURN(
        options.kelpie.engine.relevance_cache,
        OpenCacheFlag(args, **model, options.kelpie.engine.seed,
                      options.kelpie.engine.warm_start_mimics));
  }
  // SIGTERM/SIGINT drain the front-end only: the listener stops accepting
  // and reading, but in-flight extractions keep an untriggered cancel token
  // so buffered requests finish before the process exits 0.
  CancelToken drain;
  WireCancelToSignals(drain);
  options.cancel = CancelToken();

  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(args.Get("model-file"), *dataset, options);
  if (!server.ok()) return server.status();

  serve::TcpServerOptions tcp;
  tcp.host = args.Get("host", "127.0.0.1");
  uint64_t port = 0;
  KELPIE_ASSIGN_OR_RETURN(port, args.GetU64("port", 0));
  if (port > 65535) return Status::InvalidArgument("--port must be <= 65535");
  tcp.port = static_cast<int>(port);
  tcp.cancel = drain;
  serve::TcpServer front(**server, tcp);
  KELPIE_RETURN_IF_ERROR(front.Start());
  std::printf("serving on %s:%d (pool %zu, queue %zu, batch %zu)\n",
              tcp.host.c_str(), front.port(), options.pool_size,
              options.max_queue_depth, options.max_batch);
  std::fflush(stdout);
  front.Run();
  (*server)->Stop();
  std::printf("serve stopped\n");
  return Status::Ok();
}

Status CmdServeClient(const Args& args) {
  serve::ClientOptions options;
  options.host = args.Get("host", "127.0.0.1");
  uint64_t port = 0, connections = 0;
  KELPIE_ASSIGN_OR_RETURN(port, args.GetU64("port", 0));
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument("--port PORT is required");
  }
  options.port = static_cast<int>(port);
  KELPIE_ASSIGN_OR_RETURN(connections, args.GetU64("connections", 1));
  options.connections = connections;
  uint64_t retries = 0, retry_seed = 0;
  KELPIE_ASSIGN_OR_RETURN(retries, args.GetU64("retries", 3));
  KELPIE_ASSIGN_OR_RETURN(retry_seed, args.GetU64("retry-seed", 1));
  options.max_retries = retries;
  options.retry_seed = retry_seed;
  KELPIE_ASSIGN_OR_RETURN(options.retry_backoff_seconds,
                          args.GetDouble("retry-backoff", 0.05));
  KELPIE_ASSIGN_OR_RETURN(options.retry_backoff_cap_seconds,
                          args.GetDouble("retry-backoff-cap", 1.0));
  if (options.retry_backoff_seconds < 0.0 ||
      options.retry_backoff_cap_seconds < 0.0) {
    return Status::InvalidArgument("retry backoff values must be >= 0");
  }

  std::vector<std::string> lines;
  if (args.Has("in")) {
    std::ifstream in(args.Get("in"));
    if (!in) return Status::IoError("cannot open " + args.Get("in"));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  if (lines.empty()) {
    return Status::InvalidArgument(
        "no request lines (pass --in FILE or pipe them on stdin)");
  }
  Result<serve::ClientBatchResult> batch =
      serve::RunClientBatch(options, lines);
  if (!batch.ok()) return batch.status();
  for (const std::string& response : batch->responses) {
    std::printf("%s\n", response.c_str());
  }
  if (batch->retries > 0) {
    std::fprintf(stderr, "serve-client: %zu retries performed\n",
                 batch->retries);
  }
  if (batch->exhausted > 0) {
    // Every request still produced a response line above; the nonzero exit
    // tells scripts that some of them are the synthesized/final errors.
    return Status::Unavailable(std::to_string(batch->exhausted) +
                               " request(s) exhausted their retry budget");
  }
  return Status::Ok();
}

/// `kelpie cache <verb> --file PATH`: offline maintenance of a relevance
/// cache file. `stats` parses it with the loader's recovery rules (against
/// its own header fingerprint) and reports what a matching model would
/// load; `purge` deletes it (missing is fine — purge is idempotent).
Status CmdCache(const std::string& verb, const Args& args) {
  if (!args.Has("file")) {
    return Status::InvalidArgument("--file PATH is required");
  }
  const std::string path = args.Get("file");
  if (verb == "stats") {
    Result<RelevanceCacheFileInfo> info = RelevanceCache::Inspect(path);
    if (!info.ok()) return info.status();
    std::printf("file          %s\n", path.c_str());
    std::printf("file bytes    %zu\n", info->file_bytes);
    std::printf("header        %s\n", info->header_ok ? "ok" : "corrupt");
    if (!info->header_ok) {
      std::printf("(a matching model loads this file as an empty cache)\n");
      return Status::Ok();
    }
    std::printf("fingerprint   %016llx\n",
                static_cast<unsigned long long>(info->fingerprint));
    std::printf("entries       %zu\n", info->entries);
    std::printf("payload bytes %zu\n", info->payload_bytes);
    std::printf("corrupt       %llu\n",
                static_cast<unsigned long long>(info->corrupt_entries));
    std::printf("torn tail     %s\n", info->torn_tail ? "yes" : "no");
    return Status::Ok();
  }
  if (verb == "purge") {
    std::error_code ec;
    const bool removed = std::filesystem::remove(path, ec);
    if (ec) {
      return Status::IoError("purge " + path + ": " + ec.message());
    }
    std::printf(removed ? "purged %s\n" : "no cache at %s\n", path.c_str());
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown cache verb '" + verb +
                                 "' (expected stats|purge)");
}

/// `kelpie update`: incremental KG maintenance (DESIGN.md §16). Ingests a
/// delta file of added/removed training triples, re-fits the affected
/// entities' embedding rows from a warm start against the updated graph
/// (all other parameters frozen), and atomically rewrites the model — the
/// cost scales with the delta, not the graph. With --journal the operation
/// survives a mid-run kill: completed rows are CRC-framed on disk and a
/// --resume re-run replays them byte-identically. With --relevance-cache
/// the persistent post-training cache is reconciled: changed parameters
/// invalidate it wholesale (every mimic depends on the full parameter
/// vector), an unchanged-parameter update garbage-collects the affected
/// entities' now-unreachable entries.
Status CmdUpdate(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  Result<std::unique_ptr<LinkPredictionModel>> model =
      LoadModel(args.Get("model-file"));
  if (!model.ok()) return model.status();
  KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, *dataset));
  Result<ModelKind> kind = ParseModelKind((*model)->Name());
  if (!kind.ok()) return kind.status();
  if (!args.Has("delta")) {
    return Status::InvalidArgument("--delta FILE is required");
  }
  const std::string delta_path = args.Get("delta");
  Result<std::string> delta_text = ReadWholeFile(delta_path);
  if (!delta_text.ok()) return delta_text.status();
  Result<xp::KgDelta> delta =
      xp::ParseKgDelta(*delta_text, *dataset, delta_path);
  if (!delta.ok()) return delta.status();

  xp::UpdateOptions options;
  KELPIE_ASSIGN_OR_RETURN(options.seed, args.GetU64("seed", 7));
  options.journal_path = args.Get("journal");
  options.resume = args.Has("resume");
  if (options.resume && options.journal_path.empty()) {
    return Status::InvalidArgument("--resume requires --journal FILE");
  }
  // First signal finishes the in-flight row and exits with every completed
  // row journaled; a second exits hard. Mirrors train/xp drain semantics.
  WireCancelToSignals(options.cancel);

  Stopwatch timer;
  Result<xp::UpdateReport> report =
      xp::ApplyKgUpdate(**model, *dataset, *delta, options);
  if (!report.ok()) return report.status();

  const std::string out = args.Get("out", args.Get("model-file"));
  KELPIE_RETURN_IF_ERROR(SaveModel(**model, kind.value(), out));
  if (args.Has("out-data")) {
    const Dataset updated =
        dataset->WithModifiedTraining(delta->remove, delta->add);
    std::error_code ec;
    std::filesystem::create_directories(args.Get("out-data"), ec);
    if (ec) {
      return Status::IoError("cannot create " + args.Get("out-data") + ": " +
                             ec.message());
    }
    KELPIE_RETURN_IF_ERROR(SaveDatasetTsv(updated, args.Get("out-data")));
  }
  // The journal is spent once the updated model is durable: its run id
  // binds to the pre-update parameters, so leaving it behind would only
  // trip a later unrelated --resume.
  if (!options.journal_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(options.journal_path, ec);
  }

  std::printf("applied %s: +%zu/-%zu training facts, %zu affected "
              "entities (%zu isolated)\n",
              delta_path.c_str(), report->triples_added,
              report->triples_removed, report->affected.size(),
              report->isolated.size());
  std::printf("  rows: %zu recomputed, %zu replayed from journal\n",
              report->rows_recomputed, report->rows_replayed);
  std::printf("  parameters %s (fingerprint %016llx -> %016llx)\n",
              report->params_changed ? "changed" : "unchanged",
              static_cast<unsigned long long>(report->fingerprint_before),
              static_cast<unsigned long long>(report->fingerprint_after));

  if (args.Has("relevance-cache")) {
    // Open against the post-update fingerprint: a parameter change makes
    // the loader invalidate the old file wholesale (tier 1); otherwise the
    // entries load and the affected entities' dead keys are collected
    // (tier 2). Either way the flushed file is consistent with the model
    // just saved.
    std::shared_ptr<RelevanceCache> cache;
    KELPIE_ASSIGN_OR_RETURN(cache,
                            OpenCacheFlag(args, **model, options.seed,
                                          args.Has("warm-mimics")));
    const size_t purged = cache->PurgeEntities(report->affected);
    const RelevanceCacheStats stats = cache->stats();
    if (stats.evict_fingerprint > 0) {
      std::printf("  relevance cache: invalidated wholesale (parameters "
                  "changed)\n");
    } else {
      std::printf("  relevance cache: %zu stale entr%s purged, %zu kept\n",
                  purged, purged == 1 ? "y" : "ies", stats.entries);
    }
    FlushCache(cache);
  }
  std::printf("  saved to %s (%.2fs)\n", out.c_str(), timer.ElapsedSeconds());
  return Status::Ok();
}

Status CmdAudit(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  Result<std::unique_ptr<LinkPredictionModel>> model =
      LoadModel(args.Get("model-file"));
  if (!model.ok()) return model.status();
  KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, *dataset));
  Result<int32_t> relation =
      dataset->relations().Find(args.Get("relation"));
  if (!relation.ok()) return relation.status();
  uint64_t limit = 0;
  KELPIE_ASSIGN_OR_RETURN(limit, args.GetU64("limit", 8));

  KelpieOptions options;
  KELPIE_ASSIGN_OR_RETURN(options.engine.num_threads,
                          args.GetU64("threads", 1));
  Kelpie kelpie(**model, *dataset, options);
  PatternMiner miner;
  uint64_t seed = 0;
  KELPIE_ASSIGN_OR_RETURN(seed, args.GetU64("seed", 7));
  Rng rng(seed);
  size_t explained = 0;
  for (const Triple& t : dataset->test()) {
    if (explained >= limit) break;
    if (t.relation != relation.value()) continue;
    if (FilteredTailRank(**model, *dataset, t) != 1) continue;
    std::vector<EntityId> conversion_set = SampleConversionEntities(
        **model, *dataset, t, PredictionTarget::kTail, 5, rng);
    if (conversion_set.empty()) continue;
    Explanation x = kelpie.ExplainSufficientWithSet(
        t, PredictionTarget::kTail, conversion_set);
    if (x.empty()) continue;
    miner.Add(t, x);
    ++explained;
  }
  std::printf("%s", miner.Report(*dataset).c_str());
  std::vector<EvidencePattern> biases = miner.BiasCandidates(0.5);
  if (biases.empty()) {
    std::printf("no dominant foreign-relation evidence (no bias flagged)\n");
  } else {
    for (const EvidencePattern& b : biases) {
      std::printf("BIAS: '%s' predictions rely on '%s' evidence "
                  "(share %.0f%%)\n",
                  dataset->relations().NameOf(b.prediction_relation).c_str(),
                  dataset->relations().NameOf(b.evidence_relation).c_str(),
                  b.share * 100.0);
    }
  }
  return Status::Ok();
}

Status CmdXp(const Args& args) {
  Result<Dataset> dataset = LoadData(args);
  if (!dataset.ok()) return dataset.status();
  Result<std::unique_ptr<LinkPredictionModel>> model =
      LoadModel(args.Get("model-file"));
  if (!model.ok()) return model.status();
  KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(**model, *dataset));
  Result<ModelKind> kind = ParseModelKind((*model)->Name());
  if (!kind.ok()) return kind.status();
  const std::string scenario = args.Get("scenario", "necessary");
  if (scenario != "necessary" && scenario != "sufficient") {
    return Status::InvalidArgument(
        "--scenario must be 'necessary' or 'sufficient', got '" + scenario +
        "'");
  }
  if (!args.Has("journal")) {
    return Status::InvalidArgument("--journal FILE is required");
  }
  uint64_t sample = 0, seed = 0, conversion_set_size = 0;
  KELPIE_ASSIGN_OR_RETURN(sample, args.GetU64("sample", 8));
  KELPIE_ASSIGN_OR_RETURN(seed, args.GetU64("seed", 7));
  KELPIE_ASSIGN_OR_RETURN(conversion_set_size,
                          args.GetU64("conversion-set", 5));
  KelpieOptions options;
  KELPIE_ASSIGN_OR_RETURN(options.engine.num_threads,
                          args.GetU64("threads", 1));
  options.engine.quantized_shortlist = args.Has("quant-shortlist");

  Rng sample_rng(seed);
  std::vector<Triple> predictions =
      SampleCorrectTailPredictions(**model, *dataset, sample, sample_rng);
  if (predictions.empty()) {
    return Status::FailedPrecondition(
        "no correct test predictions to explain — the model ranks no test "
        "fact first");
  }

  KelpieExplainer explainer(**model, *dataset, options);

  // Bounded extraction: Ctrl-C (or SIGTERM) flips the shared cancel token;
  // the in-flight extraction stops at its next candidate boundary, its
  // best-so-far record is journaled by the run loop's own flush discipline,
  // and the run returns a Cancelled summary. A second signal exits
  // immediately.
  CancelToken cancel;
  WireCancelToSignals(cancel);
  ExtractionLimits limits;
  KELPIE_ASSIGN_OR_RETURN(limits, ParseExtractionLimits(args, cancel));
  RunControl control;
  control.journal_path = args.Get("journal");
  control.resume = args.Has("resume");
  control.cancel = cancel;
  control.retry_truncated = args.Has("retry-truncated");
  if (control.retry_truncated && !control.resume) {
    return Status::InvalidArgument(
        "--retry-truncated only makes sense with --resume");
  }
  // Warm-start end-to-end retrains from a training checkpoint (the base
  // model's --checkpoint directory): the retrain resumes from the converged
  // parameters and runs only --warm-epochs epochs instead of a full
  // from-scratch schedule. Changes the measured deltas (they answer "what
  // does a short continuation from the converged state do"), so journals of
  // warm runs get a distinct run id and never mix with cold ones.
  control.retrain.warm_start_checkpoint = args.Get("warm-start");
  uint64_t warm_epochs = 0;
  KELPIE_ASSIGN_OR_RETURN(warm_epochs, args.GetU64("warm-epochs", 0));
  control.retrain.warm_epochs = warm_epochs;
  if (warm_epochs > 0 && control.retrain.warm_start_checkpoint.empty()) {
    return Status::InvalidArgument("--warm-epochs needs --warm-start DIR");
  }
  double deadline_seconds = 0.0;
  KELPIE_ASSIGN_OR_RETURN(deadline_seconds, args.GetDouble("deadline", 0.0));
  if (deadline_seconds < 0.0) {
    return Status::InvalidArgument("--deadline must be non-negative");
  }
  if (deadline_seconds > 0.0) {
    // One run-level clock: in-flight extractions and the prediction loop
    // observe the same deadline.
    control.deadline = Deadline::After(deadline_seconds);
    limits.deadline = control.deadline;
  }
  explainer.SetExtractionLimits(limits);

  // Derived, disjoint seed streams: the sampling rng above consumed `seed`.
  const uint64_t retrain_seed = seed + 1;
  const uint64_t conversion_seed = seed + 2;

  // Wall-clock over the whole run (extraction + end-to-end retrain): the
  // number EXPERIMENTS.md quotes for the warm-start retrain speedup.
  Stopwatch run_timer;
  const bool sufficient = scenario == "sufficient";
  Result<EndToEndResult> result = RunEndToEnd(
      explainer, **model, kind.value(), *dataset, predictions,
      sufficient ? ExplanationKind::kSufficient : ExplanationKind::kNecessary,
      conversion_set_size, conversion_seed, retrain_seed,
      PredictionTarget::kTail, control);
  if (!result.ok()) return result.status();
  std::printf("%s scenario over %zu predictions (journal %s):\n",
              scenario.c_str(), predictions.size(),
              control.journal_path.c_str());
  if (sufficient) {
    std::printf("  conversions before: H@1 %.3f  MRR %.3f\n",
                result->before.hits_at_1, result->before.mrr);
  }
  std::printf("  after %s + retraining: H@1 %.3f  MRR %.3f  "
              "(ΔH@1 %+.3f, ΔMRR %+.3f)\n",
              sufficient ? "transfer" : "removal", result->after.hits_at_1,
              result->after.mrr, result->delta_h1(), result->delta_mrr());
  PrintTruncationSummary(result->explanations);
  std::printf("  wall time: %.2fs%s\n", run_timer.ElapsedSeconds(),
              control.retrain.warm_start_checkpoint.empty()
                  ? ""
                  : " (warm-start retrain)");
  return Status::Ok();
}

Status CmdMetrics(const Args& args) {
  metrics::Registry& reg = metrics::Registry::Global();
  if (args.Has("demo")) {
    // A tiny deterministic workload over the instrumentation primitives, so
    // the exposition formats can be inspected (and documented) without
    // loading a dataset or training a model.
    trace::Collector::Global().Enable();
    metrics::Counter& items = reg.GetCounter(
        "kelpie_demo_items_total", {{"outcome", "processed"}},
        metrics::Determinism::kDeterministic, "Demo counter.");
    metrics::Gauge& level =
        reg.GetGauge("kelpie_demo_level", {},
                     metrics::Determinism::kDeterministic, "Demo gauge.");
    metrics::Histogram& sizes = reg.GetHistogram(
        "kelpie_demo_size", metrics::LinearBuckets(1.0, 1.0, 4), {},
        metrics::Determinism::kDeterministic, "Demo histogram.");
    {
      trace::Span outer("demo.run");
      for (int i = 1; i <= 5; ++i) {
        trace::Span inner("demo.step");
        items.Increment();
        level.Set(static_cast<double>(i));
        sizes.Observe(static_cast<double>(i));
      }
    }
  }
  const std::string rendered =
      args.Has("json") ? trace::ObservabilitySnapshotJson(false) + "\n"
                       : reg.TextExposition(false);
  if (args.Has("out")) {
    KELPIE_RETURN_IF_ERROR(WriteTextFile(args.Get("out"), rendered));
    std::printf("wrote metrics snapshot to %s\n", args.Get("out").c_str());
    return Status::Ok();
  }
  std::printf("%s", rendered.c_str());
  return Status::Ok();
}

int Usage() {
  std::printf("usage: kelpie <command> [flags]\n");
  for (const Verb& verb : Verbs()) {
    std::printf("  %-8s", verb.name);
    if (verb.operand[0] != '\0') std::printf(" %s", verb.operand);
    for (const Flag& flag : verb.flags) {
      std::string text = std::string("--") + flag.name;
      if (flag.value != nullptr) text += std::string(" ") + flag.value;
      std::printf(flag.required ? " %s" : " [%s]", text.c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "serving:\n"
      "  kelpie serve                newline-delimited-JSON TCP service over\n"
      "                              a pool of --pool pre-loaded model\n"
      "                              instances, one dispatcher thread each\n"
      "                              (score/explain/ping/health/stats/\n"
      "                              shutdown ops; port 0 picks an ephemeral\n"
      "                              port). Responses are byte-identical to\n"
      "                              the one-shot `score --canonical` /\n"
      "                              `explain --canonical` output.\n"
      "                              SIGTERM/shutdown drain: buffered\n"
      "                              requests finish, new connections are\n"
      "                              refused, health answers \"draining\"\n"
      "  kelpie serve-client         sends request lines (stdin or --in) over\n"
      "                              N connections, prints responses sorted\n"
      "                              by id; shed (Unavailable) and reset\n"
      "                              requests are retried with capped\n"
      "                              exponential backoff + deterministic\n"
      "                              jitter; exits nonzero only when a\n"
      "                              request exhausts --retries\n"
      "  --relevance-cache FILE      on explain/serve: persistent CRC-framed\n"
      "                              post-training cache keyed by the model\n"
      "                              fingerprint; corruption degrades to\n"
      "                              recomputing (never wrong bytes).\n"
      "                              `kelpie cache stats|purge --file FILE`\n"
      "                              inspects or deletes it offline\n"
      "  --warm-mimics               on explain/serve: seed every mimic from\n"
      "                              the stored embedding it imitates (warm\n"
      "                              cache entries are salted apart from\n"
      "                              cold ones)\n"
      "  --quant-shortlist           serve filtered ranks through the int8\n"
      "                              candidate sweep with certified error\n"
      "                              bounds and exact re-scoring of the\n"
      "                              uncertain band; ranks, explanations and\n"
      "                              journals are byte-identical with the\n"
      "                              flag on or off (DESIGN.md §15)\n"
      "crash-safe training:\n"
      "  train --checkpoint DIR      atomic CRC-framed checkpoint after each\n"
      "                              epoch (or every --checkpoint-interval\n"
      "                              epochs): parameters, optimizer state,\n"
      "                              RNG stream, recovery ledger\n"
      "  train --resume              restore from DIR and continue; a run\n"
      "                              killed at any point converges to the\n"
      "                              byte-identical model of an\n"
      "                              uninterrupted run. Corrupt or stale\n"
      "                              checkpoints degrade to retraining from\n"
      "                              scratch, never an error.\n"
      "                              SIGINT/SIGTERM finish the epoch, write\n"
      "                              a final checkpoint, exit clean\n"
      "  xp --warm-start DIR         end-to-end retrains resume from the\n"
      "                              checkpointed base state and run\n"
      "                              --warm-epochs N epochs (journals get a\n"
      "                              distinct warm run id)\n"
      "  train --sparse              touched-row sparse optimizer state for\n"
      "                              embedding gradients; byte-identical to\n"
      "                              the dense path, O(touched rows) memory\n"
      "incremental updates:\n"
      "  kelpie update               ingest a KG delta file (lines\n"
      "                              'add<TAB>h<TAB>r<TAB>t' and\n"
      "                              'remove<TAB>h<TAB>r<TAB>t') and re-fit\n"
      "                              only the affected entities' rows from a\n"
      "                              warm start — cost scales with the delta,\n"
      "                              not the graph. --journal makes it crash-\n"
      "                              safe (--resume replays completed rows\n"
      "                              byte-identically); --relevance-cache\n"
      "                              reconciles the post-training cache\n"
      "                              (wholesale on parameter change, dead-key\n"
      "                              GC otherwise)\n"
      "models: TransE ComplEx ConvE DistMult RotatE\n"
      "datasets: FB15k FB15k-237 WN18 WN18RR YAGO3-10\n"
      "observability:\n"
      "  kelpie metrics              Prometheus text exposition of the\n"
      "                              process registry (--json for the\n"
      "                              combined metrics + trace snapshot;\n"
      "                              --demo populates sample series)\n"
      "  --metrics-out FILE          on evaluate/explain/serve/xp: arm the\n"
      "                              trace collector and write the JSON\n"
      "                              snapshot when the command finishes\n"
      "bounded extraction:\n"
      "  --work-budget N             deterministic per-prediction budget in\n"
      "                              work units (1 unit = one post-training);\n"
      "                              same N => same truncated explanation at\n"
      "                              any thread count\n"
      "  --per-prediction-timeout S  wall-clock seconds per extraction\n"
      "                              (not deterministic)\n"
      "  --deadline S                run-level wall-clock deadline (xp)\n"
      "  --retry-truncated           with --resume: re-extract journaled\n"
      "                              predictions a limit truncated\n"
      "  SIGINT/SIGTERM cancel cleanly: the journal keeps every finished\n"
      "  prediction; a second signal exits immediately\n"
      "fault injection (tests):\n"
      "  KELPIE_FAILPOINTS=name[:match[:times]],...  arm failpoints; match\n"
      "  is a value or '*', times a count or 'forever'. Known failpoints:\n"
      "    train.diverge (value = epoch), train.interrupt (value = epoch,\n"
      "    aborts after that epoch's checkpoint — kill -9 stand-in),\n"
      "    engine.post_train.diverge (value = entity id),\n"
      "    pipeline.interrupt (value = prediction index),\n"
      "    atomic_file.partial_write, atomic_file.rename,\n"
      "    cache.partial_write (torn tail), cache.bit_flip (payload\n"
      "    corruption), cache.stale_fingerprint (wrong-model header),\n"
      "    checkpoint.partial_write, checkpoint.bit_flip,\n"
      "    checkpoint.stale_config (checkpoint corruption matrix)\n");
  return 2;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (const char* spec = std::getenv("KELPIE_FAILPOINTS")) {
    Status status = failpoint::ArmFromSpec(spec);
    if (!status.ok()) return Fail(status.ToString());
  }
  const std::string command = argv[1];
  const Verb* verb = FindVerb(command);
  if (verb == nullptr) return Usage();
  const bool has_operand = verb->operand[0] != '\0';
  if (has_operand && argc < 3) return Usage();
  Args args(argc, argv, has_operand ? 3 : 2, *verb);
  if (!args.status().ok()) return Fail(args.status().ToString());
  Status status = Status::Ok();
  if (command == "generate") {
    status = CmdGenerate(args);
  } else if (command == "train") {
    status = CmdTrain(args);
  } else if (command == "evaluate") {
    MetricsSink sink(args);
    status = sink.Finish(CmdEvaluate(args));
  } else if (command == "explain") {
    MetricsSink sink(args);
    status = sink.Finish(CmdExplain(args));
  } else if (command == "score") {
    status = CmdScore(args);
  } else if (command == "serve") {
    MetricsSink sink(args);
    status = sink.Finish(CmdServe(args));
  } else if (command == "serve-client") {
    status = CmdServeClient(args);
  } else if (command == "update") {
    status = CmdUpdate(args);
  } else if (command == "audit") {
    status = CmdAudit(args);
  } else if (command == "xp") {
    MetricsSink sink(args);
    status = sink.Finish(CmdXp(args));
  } else if (command == "cache") {
    status = CmdCache(argv[2], args);
  } else if (command == "metrics") {
    status = CmdMetrics(args);
  }
  return status.ok() ? 0 : Fail(status.ToString());
}

}  // namespace
}  // namespace kelpie

int main(int argc, char** argv) { return kelpie::Run(argc, argv); }
