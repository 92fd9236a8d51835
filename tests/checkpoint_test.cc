#include "ml/checkpoint.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/failpoint.h"
#include "eval/evaluator.h"
#include "models/factory.h"
#include "models/model_store.h"
#include "tests/test_util.h"

namespace kelpie {

/// Largest single operator-new request while tracking is on (see the
/// replacement operator new below); lets a test prove a corrupt length
/// never drives an allocation.
std::atomic<size_t> g_largest_allocation{0};
std::atomic<bool> g_track_allocations{false};

}  // namespace kelpie

void* operator new(std::size_t size) {
  if (kelpie::g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = kelpie::g_largest_allocation.load();
    while (seen < size &&
           !kelpie::g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace kelpie {
namespace {

/// The crash-safety contract under test: a training run interrupted at any
/// epoch boundary (failpoint stand-in for `kill -9` — the atomic write
/// means a mid-write crash just preserves the previous checkpoint) and
/// resumed from its checkpoint must converge to parameters bitwise
/// identical to an uninterrupted run, for every architecture; and every
/// corruption of the checkpoint file must degrade to retraining, never to
/// an error or to silently different bytes.
class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing_util::MakeToyDataset());
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("kelpie_checkpoint_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }
  void TearDown() override { failpoint::DisarmAll(); }

  /// Fresh checkpoint directory per use so corruption never leaks.
  static std::string CkptDir(const std::string& name) {
    return (*dir_ / name).string();
  }

  /// Short schedule: long enough that the interrupt epoch is interior,
  /// short enough to train all five architectures in one suite.
  static TrainConfig Config(ModelKind kind) {
    TrainConfig config = testing_util::FastConfig(kind);
    config.epochs = 6;
    return config;
  }

  static uint64_t Fingerprint(ModelKind kind, uint64_t seed) {
    return ComputeTrainFingerprint(kind, Config(kind), *dataset_, seed);
  }

  /// Every learned parameter as raw bytes; byte equality here is the
  /// "bitwise identical model" acceptance criterion.
  static std::string ParamsBytes(const LinkPredictionModel& model) {
    std::ostringstream out;
    Status s = model.SaveParameters(out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::move(out).str();
  }

  /// Uninterrupted reference run (no checkpointing).
  static std::unique_ptr<LinkPredictionModel> TrainReference(ModelKind kind,
                                                             uint64_t seed) {
    auto model = CreateModel(kind, *dataset_, Config(kind));
    Rng rng(seed);
    EXPECT_TRUE(model->Train(*dataset_, rng).ok());
    return model;
  }

  /// Checkpointed run killed by the `train.interrupt` failpoint right after
  /// `interrupt_epoch` commits (and its checkpoint is flushed).
  static void TrainInterrupted(ModelKind kind, uint64_t seed,
                               const std::string& ckpt_dir,
                               uint64_t interrupt_epoch) {
    auto model = CreateModel(kind, *dataset_, Config(kind));
    CheckpointOptions options;
    options.directory = ckpt_dir;
    options.fingerprint = Fingerprint(kind, seed);
    TrainCheckpointer checkpointer(options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    failpoint::Arm("train.interrupt", interrupt_epoch);
    Rng rng(seed);
    Status status = model->Train(*dataset_, rng, control);
    failpoint::DisarmAll();
    EXPECT_EQ(status.code(), StatusCode::kAborted) << status.ToString();
  }

  /// Fresh model resumed from `ckpt_dir` to completion.
  static std::unique_ptr<LinkPredictionModel> TrainResumed(
      ModelKind kind, uint64_t seed, const std::string& ckpt_dir,
      TrainCheckpointer* out_checkpointer = nullptr) {
    auto model = CreateModel(kind, *dataset_, Config(kind));
    CheckpointOptions options;
    options.directory = ckpt_dir;
    options.resume = true;
    options.fingerprint = Fingerprint(kind, seed);
    TrainCheckpointer checkpointer(options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    Rng rng(seed);
    EXPECT_TRUE(model->Train(*dataset_, rng, control).ok());
    if (out_checkpointer != nullptr) *out_checkpointer = checkpointer;
    return model;
  }

  static Dataset* dataset_;
  static std::filesystem::path* dir_;
};

Dataset* CheckpointTest::dataset_ = nullptr;
std::filesystem::path* CheckpointTest::dir_ = nullptr;

constexpr ModelKind kAllKinds[] = {ModelKind::kTransE, ModelKind::kComplEx,
                                   ModelKind::kDistMult, ModelKind::kRotatE,
                                   ModelKind::kConvE};

// ---------------------------------------------------------------------------
// Byte-identical resume, every architecture.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ResumeAfterInterruptIsByteIdenticalForAllModels) {
  for (ModelKind kind : kAllKinds) {
    SCOPED_TRACE(ModelKindName(kind));
    const uint64_t seed = 42;
    auto reference = TrainReference(kind, seed);
    const std::string ref_bytes = ParamsBytes(*reference);

    const std::string ckpt =
        CkptDir(std::string("resume_") + std::string(ModelKindName(kind)));
    TrainInterrupted(kind, seed, ckpt, /*interrupt_epoch=*/2);

    TrainCheckpointer checkpointer({});
    auto resumed = TrainResumed(kind, seed, ckpt, &checkpointer);
    EXPECT_EQ(checkpointer.last_restore_outcome(),
              CheckpointRestoreOutcome::kRestored);
    EXPECT_EQ(checkpointer.restored_epoch(), 3u);
    EXPECT_EQ(ParamsBytes(*resumed), ref_bytes);
    // The report is restored too: the resumed run's total equals an
    // uninterrupted run's, not just its own remaining epochs.
    EXPECT_EQ(resumed->last_train_report().epochs_run, 6u);
    EXPECT_EQ(resumed->last_train_report().completeness,
              Completeness::kComplete);
  }
}

TEST_F(CheckpointTest, ResumeAtFinalEpochRunsZeroEpochs) {
  const ModelKind kind = ModelKind::kTransE;
  const uint64_t seed = 7;
  auto reference = TrainReference(kind, seed);
  const std::string ckpt = CkptDir("resume_final");
  TrainInterrupted(kind, seed, ckpt, /*interrupt_epoch=*/5);  // last of 6
  auto resumed = TrainResumed(kind, seed, ckpt);
  EXPECT_EQ(ParamsBytes(*resumed), ParamsBytes(*reference));
}

TEST_F(CheckpointTest, ResumedModelEvaluatesIdenticallyAtAnyThreadCount) {
  const ModelKind kind = ModelKind::kComplEx;
  const uint64_t seed = 42;
  const std::string ckpt = CkptDir("resume_eval");
  TrainInterrupted(kind, seed, ckpt, /*interrupt_epoch=*/2);
  auto resumed = TrainResumed(kind, seed, ckpt);

  EvalOptions sequential;
  sequential.num_threads = 1;
  EvalOptions parallel;
  parallel.num_threads = 4;
  EvalResult a = EvaluateTest(*resumed, *dataset_, sequential);
  EvalResult b = EvaluateTest(*resumed, *dataset_, parallel);
  EXPECT_EQ(a.HitsAt1(), b.HitsAt1());
  EXPECT_EQ(a.Mrr(), b.Mrr());
}

// ---------------------------------------------------------------------------
// Optimizer state: the whole accumulator/step bundle round-trips bit-exact.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CheckpointStateRoundTripsBitExact) {
  // ConvE carries the richest optimizer state (Adagrad accumulators, Adam
  // moments AND step counters); ComplEx covers the plain Adagrad family.
  for (ModelKind kind : {ModelKind::kConvE, ModelKind::kComplEx}) {
    SCOPED_TRACE(ModelKindName(kind));
    const uint64_t seed = 13;
    const std::string first = CkptDir(std::string("roundtrip_a_") +
                                      std::string(ModelKindName(kind)));
    TrainInterrupted(kind, seed, first, /*interrupt_epoch=*/2);

    CheckpointOptions load;
    load.directory = first;
    load.resume = true;
    load.fingerprint = Fingerprint(kind, seed);
    TrainCheckpointer loader(load);
    std::optional<CheckpointState> state = loader.TryRestore();
    ASSERT_TRUE(state.has_value());
    if (kind == ModelKind::kConvE) {
      // Adam step counts: 3 committed epochs on each of the 4 Adam-managed
      // tensors — nonzero, or the bias correction would restart.
      ASSERT_FALSE(state->counters.empty());
      for (uint64_t c : state->counters) EXPECT_GT(c, 0u);
    }

    CheckpointOptions copy = load;
    copy.directory = CkptDir(std::string("roundtrip_b_") +
                             std::string(ModelKindName(kind)));
    copy.resume = true;
    TrainCheckpointer writer(copy);
    ASSERT_TRUE(writer.Save(*state).ok());
    std::optional<CheckpointState> reread = writer.TryRestore();
    ASSERT_TRUE(reread.has_value());

    EXPECT_EQ(reread->next_epoch, state->next_epoch);
    EXPECT_EQ(std::memcmp(&reread->lr_scale, &state->lr_scale, sizeof(float)),
              0);
    EXPECT_EQ(reread->recoveries_left, state->recoveries_left);
    EXPECT_EQ(reread->rng, state->rng);
    EXPECT_EQ(reread->counters, state->counters);
    ASSERT_EQ(reread->params.size(), state->params.size());
    for (size_t i = 0; i < state->params.size(); ++i) {
      ASSERT_EQ(reread->params[i].size(), state->params[i].size());
      EXPECT_EQ(std::memcmp(reread->params[i].data(), state->params[i].data(),
                            state->params[i].size() * sizeof(float)),
                0)
          << "param span " << i;
    }
    EXPECT_EQ(reread->report.epochs_run, state->report.epochs_run);
    EXPECT_EQ(reread->report.recoveries, state->report.recoveries);
    EXPECT_EQ(reread->report.events.size(), state->report.events.size());
  }
}

TEST_F(CheckpointTest, RecoveryLedgerSurvivesResume) {
  // Diverge at epoch 1 (recovery: rewind + lr backoff), interrupt at epoch
  // 3, resume: the final report must carry the recovery event and the
  // backed-off lr_scale, exactly like the uninterrupted run's.
  const ModelKind kind = ModelKind::kTransE;
  const uint64_t seed = 23;

  auto reference = CreateModel(kind, *dataset_, Config(kind));
  failpoint::Arm("train.diverge", 1);
  Rng ref_rng(seed);
  ASSERT_TRUE(reference->Train(*dataset_, ref_rng).ok());
  failpoint::DisarmAll();
  ASSERT_EQ(reference->last_train_report().recoveries, 1);
  const std::string ref_bytes = ParamsBytes(*reference);
  const float ref_lr_scale = reference->last_train_report().lr_scale;

  const std::string ckpt = CkptDir("ledger");
  {
    auto model = CreateModel(kind, *dataset_, Config(kind));
    CheckpointOptions options;
    options.directory = ckpt;
    options.fingerprint = Fingerprint(kind, seed);
    TrainCheckpointer checkpointer(options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    failpoint::Arm("train.diverge", 1);
    failpoint::Arm("train.interrupt", 3);
    Rng rng(seed);
    Status status = model->Train(*dataset_, rng, control);
    failpoint::DisarmAll();
    ASSERT_EQ(status.code(), StatusCode::kAborted);
  }

  auto resumed = TrainResumed(kind, seed, ckpt);
  EXPECT_EQ(ParamsBytes(*resumed), ref_bytes);
  const TrainReport& report = resumed->last_train_report();
  EXPECT_EQ(report.recoveries, 1);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].epoch, 1u);
  EXPECT_EQ(report.events[0].reason, "non-finite parameters");
  EXPECT_EQ(report.lr_scale, ref_lr_scale);
}

// ---------------------------------------------------------------------------
// Corruption matrix: every damage mode degrades to scratch, never errors —
// and the degraded run still converges to the reference bytes.
// ---------------------------------------------------------------------------

class CheckpointCorruptionTest : public CheckpointTest {
 protected:
  /// A valid checkpoint file to damage (TransE, interrupted at epoch 2).
  std::string MakeGoodCheckpoint(const std::string& name) {
    const std::string ckpt = CkptDir(name);
    TrainInterrupted(ModelKind::kTransE, 42, ckpt, /*interrupt_epoch=*/2);
    return ckpt;
  }

  static CheckpointRestoreOutcome RestoreOutcome(const std::string& ckpt_dir,
                                                 uint64_t fingerprint) {
    CheckpointOptions options;
    options.directory = ckpt_dir;
    options.resume = true;
    options.fingerprint = fingerprint;
    TrainCheckpointer checkpointer(options);
    std::optional<CheckpointState> state = checkpointer.TryRestore();
    EXPECT_EQ(state.has_value(),
              checkpointer.last_restore_outcome() ==
                  CheckpointRestoreOutcome::kRestored);
    return checkpointer.last_restore_outcome();
  }

  static void Truncate(const std::string& path, size_t new_size) {
    std::filesystem::resize_file(path, new_size);
  }

  static void FlipByte(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }
};

TEST_F(CheckpointCorruptionTest, MissingFileIsNoFile) {
  EXPECT_EQ(RestoreOutcome(CkptDir("never_written"), 0),
            CheckpointRestoreOutcome::kNoFile);
}

TEST_F(CheckpointCorruptionTest, ResumeNotRequestedIsNotAttempted) {
  CheckpointOptions options;
  options.directory = MakeGoodCheckpoint("not_attempted");
  options.resume = false;
  TrainCheckpointer checkpointer(options);
  EXPECT_FALSE(checkpointer.TryRestore().has_value());
  EXPECT_EQ(checkpointer.last_restore_outcome(),
            CheckpointRestoreOutcome::kNotAttempted);
}

TEST_F(CheckpointCorruptionTest, TornTailDegradesToScratchAndConverges) {
  const uint64_t seed = 42;
  const uint64_t fp = Fingerprint(ModelKind::kTransE, seed);
  const std::string ckpt = MakeGoodCheckpoint("torn");
  const std::string file = TrainCheckpointer({ckpt}).FilePath();
  const size_t size = std::filesystem::file_size(file);
  Truncate(file, size - 5);
  EXPECT_EQ(RestoreOutcome(ckpt, fp), CheckpointRestoreOutcome::kCorrupt);

  // The degraded resume retrains from scratch — and, because the scratch
  // trajectory is the reference trajectory, still lands on identical bytes.
  auto reference = TrainReference(ModelKind::kTransE, seed);
  auto resumed = TrainResumed(ModelKind::kTransE, seed, ckpt);
  EXPECT_EQ(ParamsBytes(*resumed), ParamsBytes(*reference));
}

TEST_F(CheckpointCorruptionTest, BitFlipInParamsIsCorrupt) {
  const std::string ckpt = MakeGoodCheckpoint("flip");
  const std::string file = TrainCheckpointer({ckpt}).FilePath();
  const size_t size = std::filesystem::file_size(file);
  FlipByte(file, size - size / 4);  // deep in the params section
  EXPECT_EQ(RestoreOutcome(ckpt, Fingerprint(ModelKind::kTransE, 42)),
            CheckpointRestoreOutcome::kCorrupt);
}

TEST_F(CheckpointCorruptionTest, PartialSectionIsCorrupt) {
  const std::string ckpt = MakeGoodCheckpoint("partial");
  const std::string file = TrainCheckpointer({ckpt}).FilePath();
  const size_t size = std::filesystem::file_size(file);
  Truncate(file, size / 2);  // ends inside a section payload
  EXPECT_EQ(RestoreOutcome(ckpt, Fingerprint(ModelKind::kTransE, 42)),
            CheckpointRestoreOutcome::kCorrupt);
}

TEST_F(CheckpointCorruptionTest, HeaderGarbageIsCorrupt) {
  const std::string ckpt = MakeGoodCheckpoint("garbage");
  const std::string file = TrainCheckpointer({ckpt}).FilePath();
  std::ofstream(file, std::ios::binary | std::ios::trunc)
      << "not a checkpoint";
  EXPECT_EQ(RestoreOutcome(ckpt, Fingerprint(ModelKind::kTransE, 42)),
            CheckpointRestoreOutcome::kCorrupt);
}

TEST_F(CheckpointCorruptionTest, WrongFingerprintIsStaleConfig) {
  const std::string ckpt = MakeGoodCheckpoint("stale");
  const uint64_t fp = Fingerprint(ModelKind::kTransE, 42);
  EXPECT_EQ(RestoreOutcome(ckpt, fp ^ 1),
            CheckpointRestoreOutcome::kStaleConfig);
  // Distinct seed, config or dataset => distinct fingerprint.
  EXPECT_NE(fp, Fingerprint(ModelKind::kTransE, 43));
  EXPECT_NE(fp, Fingerprint(ModelKind::kDistMult, 42));
}

TEST_F(CheckpointCorruptionTest, HugeFrameLengthIsCorruptWithoutAllocating) {
  const std::string ckpt = MakeGoodCheckpoint("huge_length");
  const std::string file = TrainCheckpointer({ckpt}).FilePath();
  {
    // The first frame's u64 length follows the 24-byte header and its
    // 1-byte tag; declare 2^31 bytes in a file of a few kilobytes.
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const uint64_t length = uint64_t{1} << 31;
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((length >> (8 * i)) & 0xFF);
    }
    f.seekp(25);
    f.write(bytes, 8);
  }
  g_largest_allocation.store(0);
  g_track_allocations.store(true);
  const CheckpointRestoreOutcome outcome =
      RestoreOutcome(ckpt, Fingerprint(ModelKind::kTransE, 42));
  g_track_allocations.store(false);
  EXPECT_EQ(outcome, CheckpointRestoreOutcome::kCorrupt);
  EXPECT_LT(g_largest_allocation.load(), size_t{1} << 24)
      << "a declared length must be checked against the file before any "
         "allocation";
}

TEST_F(CheckpointCorruptionTest, FlippedFingerprintByteIsCorruptNotStale) {
  // The header CRC covers the fingerprint: damage to it on disk is
  // corruption, not a checkpoint from another setup.
  const std::string ckpt = MakeGoodCheckpoint("fingerprint_flip");
  FlipByte(TrainCheckpointer({ckpt}).FilePath(), 14);
  EXPECT_EQ(RestoreOutcome(ckpt, Fingerprint(ModelKind::kTransE, 42)),
            CheckpointRestoreOutcome::kCorrupt);
}

TEST_F(CheckpointCorruptionTest, StaleConfigFailpointIsStillStaleConfig) {
  const std::string ckpt = MakeGoodCheckpoint("stale_failpoint");
  failpoint::Arm("checkpoint.stale_config");
  EXPECT_EQ(RestoreOutcome(ckpt, Fingerprint(ModelKind::kTransE, 42)),
            CheckpointRestoreOutcome::kStaleConfig);
}

TEST_F(CheckpointCorruptionTest, SaveFailpointsDamageOnlyDurability) {
  // Each save-side failpoint leaves a file the restore must reject — while
  // the interrupted training run itself is unaffected.
  struct Case {
    const char* failpoint;
    CheckpointRestoreOutcome expected;
  };
  for (const Case& c :
       {Case{"checkpoint.partial_write", CheckpointRestoreOutcome::kCorrupt},
        Case{"checkpoint.bit_flip", CheckpointRestoreOutcome::kCorrupt},
        Case{"checkpoint.stale_config",
             CheckpointRestoreOutcome::kStaleConfig}}) {
    SCOPED_TRACE(c.failpoint);
    const std::string ckpt = CkptDir(std::string("savefp_") + c.failpoint);
    failpoint::Arm(c.failpoint, failpoint::kAnyValue, failpoint::kForever);
    TrainInterrupted(ModelKind::kTransE, 42, ckpt, /*interrupt_epoch=*/2);
    failpoint::DisarmAll();
    EXPECT_EQ(RestoreOutcome(ckpt, Fingerprint(ModelKind::kTransE, 42)),
              c.expected);
  }
}

TEST_F(CheckpointCorruptionTest, ShapeMismatchDegradesToScratch) {
  // Same fingerprint (both sides pass 0 = unchecked), different model
  // shape: the guard detects the span disagreement and retrains from
  // scratch.
  const std::string ckpt = CkptDir("shape");
  {
    auto wide = CreateModel(ModelKind::kTransE, *dataset_,
                            Config(ModelKind::kTransE));
    CheckpointOptions write;
    write.directory = ckpt;  // fingerprint left 0
    TrainCheckpointer checkpointer(write);
    TrainControl control;
    control.checkpointer = &checkpointer;
    failpoint::Arm("train.interrupt", 2);
    Rng rng(42);
    Status status = wide->Train(*dataset_, rng, control);
    failpoint::DisarmAll();
    ASSERT_EQ(status.code(), StatusCode::kAborted);
  }

  TrainConfig narrow = Config(ModelKind::kTransE);
  narrow.dim = 8;
  auto model = CreateModel(ModelKind::kTransE, *dataset_, narrow);
  CheckpointOptions options;
  options.directory = ckpt;
  options.resume = true;  // fingerprint 0 on both sides: passes that gate
  TrainCheckpointer checkpointer(options);
  TrainControl control;
  control.checkpointer = &checkpointer;
  Rng rng(42);
  ASSERT_TRUE(model->Train(*dataset_, rng, control).ok());
  EXPECT_EQ(checkpointer.last_restore_outcome(),
            CheckpointRestoreOutcome::kShapeMismatch);

  auto reference = CreateModel(ModelKind::kTransE, *dataset_, narrow);
  Rng ref_rng(42);
  ASSERT_TRUE(reference->Train(*dataset_, ref_rng).ok());
  EXPECT_EQ(ParamsBytes(*model), ParamsBytes(*reference));
}

TEST_F(CheckpointCorruptionTest, UnwritableDirectoryCostsDurabilityNotTheRun) {
  // The checkpoint "directory" is an existing file: every save fails, is
  // logged, and training still completes with the reference bytes.
  const std::string bogus = CkptDir("not_a_directory");
  std::ofstream(bogus) << "occupied";

  auto model = CreateModel(ModelKind::kTransE, *dataset_, Config(ModelKind::kTransE));
  CheckpointOptions options;
  options.directory = bogus;
  options.fingerprint = Fingerprint(ModelKind::kTransE, 42);
  TrainCheckpointer checkpointer(options);
  TrainControl control;
  control.checkpointer = &checkpointer;
  Rng rng(42);
  ASSERT_TRUE(model->Train(*dataset_, rng, control).ok());

  auto reference = TrainReference(ModelKind::kTransE, 42);
  EXPECT_EQ(ParamsBytes(*model), ParamsBytes(*reference));
}

// ---------------------------------------------------------------------------
// Drain semantics: cancellation checkpoints and resumes cleanly.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CancelDrainsWritesCheckpointAndResumesByteIdentical) {
  const ModelKind kind = ModelKind::kDistMult;
  const uint64_t seed = 42;
  const std::string ckpt = CkptDir("drain");

  auto model = CreateModel(kind, *dataset_, Config(kind));
  CheckpointOptions options;
  options.directory = ckpt;
  options.fingerprint = Fingerprint(kind, seed);
  TrainCheckpointer checkpointer(options);
  TrainControl control;
  control.checkpointer = &checkpointer;
  control.cancel.RequestCancel();  // already cancelled: drain immediately
  Rng rng(seed);
  Status status = model->Train(*dataset_, rng, control);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(model->last_train_report().completeness, Completeness::kCancelled);
  EXPECT_TRUE(std::filesystem::exists(checkpointer.FilePath()));

  // Fresh (uncancelled) resume converges to the uninterrupted bytes, and
  // its report is Complete — the drain marker belongs to the drained run.
  auto reference = TrainReference(kind, seed);
  auto resumed = TrainResumed(kind, seed, ckpt);
  EXPECT_EQ(ParamsBytes(*resumed), ParamsBytes(*reference));
  EXPECT_EQ(resumed->last_train_report().completeness,
            Completeness::kComplete);
}

// ---------------------------------------------------------------------------
// Interval + warm start.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, IntervalGovernsPeriodicSavesOnly) {
  CheckpointOptions options;
  options.interval_epochs = 3;
  TrainCheckpointer checkpointer(options);
  EXPECT_FALSE(checkpointer.ShouldSave(1));
  EXPECT_FALSE(checkpointer.ShouldSave(2));
  EXPECT_TRUE(checkpointer.ShouldSave(3));
  EXPECT_FALSE(checkpointer.ShouldSave(4));
  EXPECT_TRUE(checkpointer.ShouldSave(6));

  // Interval 0 would never save; it is coerced to 1.
  CheckpointOptions zero;
  zero.interval_epochs = 0;
  EXPECT_TRUE(TrainCheckpointer(zero).ShouldSave(1));
}

TEST_F(CheckpointTest, WarmStartRestoresParametersOnlyAndIsLoadOnly) {
  const ModelKind kind = ModelKind::kComplEx;
  const uint64_t seed = 42;
  const std::string ckpt = CkptDir("warm_base");
  // Full checkpointed base run (uninterrupted — final state on disk).
  {
    auto base = CreateModel(kind, *dataset_, Config(kind));
    CheckpointOptions options;
    options.directory = ckpt;
    options.fingerprint = Fingerprint(kind, seed);
    TrainCheckpointer checkpointer(options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    Rng rng(seed);
    ASSERT_TRUE(base->Train(*dataset_, rng, control).ok());
  }
  const std::string file = TrainCheckpointer({ckpt}).FilePath();
  const size_t base_size = std::filesystem::file_size(file);
  const auto base_mtime = std::filesystem::last_write_time(file);

  // Short continuation from the warm base. The fingerprint is deliberately
  // different (different epochs): warm mode does not check it.
  TrainConfig short_config = Config(kind);
  short_config.epochs = 2;
  auto warm_once = [&] {
    auto model = CreateModel(kind, *dataset_, short_config);
    CheckpointOptions options;
    options.directory = ckpt;
    options.resume = true;
    options.mode = CheckpointMode::kWarmStart;
    TrainCheckpointer checkpointer(options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    Rng rng(seed + 99);
    EXPECT_TRUE(model->Train(*dataset_, rng, control).ok());
    EXPECT_EQ(checkpointer.last_restore_outcome(),
              CheckpointRestoreOutcome::kRestored);
    // Warm start begins at epoch 0 regardless of the stored epoch counter.
    EXPECT_EQ(model->last_train_report().epochs_run, 2u);
    return ParamsBytes(*model);
  };
  const std::string warm_a = warm_once();
  const std::string warm_b = warm_once();
  // Warm runs are reproducible among themselves...
  EXPECT_EQ(warm_a, warm_b);
  // ...differ from a cold 2-epoch run...
  auto cold = CreateModel(kind, *dataset_, short_config);
  Rng cold_rng(seed + 99);
  ASSERT_TRUE(cold->Train(*dataset_, cold_rng).ok());
  EXPECT_NE(warm_a, ParamsBytes(*cold));
  // ...and never overwrite the base checkpoint (load-only).
  EXPECT_EQ(std::filesystem::file_size(file), base_size);
  EXPECT_EQ(std::filesystem::last_write_time(file), base_mtime);
}

// ---------------------------------------------------------------------------
// Warm-start post-training (the Relevance Engine side of warm starts).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, WarmMimicInitIsDeterministicAndDistinctFromCold) {
  for (ModelKind kind : {ModelKind::kTransE, ModelKind::kComplEx}) {
    SCOPED_TRACE(ModelKindName(kind));
    auto model = testing_util::TrainToyModel(kind, *dataset_);
    const Triple& fact = dataset_->train().front();
    const EntityId entity = fact.head;
    const std::vector<Triple> facts{fact};

    Rng rng_a(77), rng_b(77), rng_c(77);
    std::vector<float> warm_a = model->PostTrainMimic(
        *dataset_, entity, facts, rng_a, model->EntityEmbedding(entity));
    std::vector<float> warm_b = model->PostTrainMimic(
        *dataset_, entity, facts, rng_b, model->EntityEmbedding(entity));
    std::vector<float> cold = model->PostTrainMimic(*dataset_, entity, facts,
                                                    rng_c);
    EXPECT_EQ(warm_a, warm_b);
    EXPECT_NE(warm_a, cold);
    // A wrong-sized warm vector falls back to the cold init scheme.
    std::vector<float> bad_init(model->entity_dim() + 1, 0.5f);
    Rng rng_d(77);
    EXPECT_EQ(model->PostTrainMimic(*dataset_, entity, facts, rng_d, bad_init),
              cold);
  }
}

}  // namespace
}  // namespace kelpie
