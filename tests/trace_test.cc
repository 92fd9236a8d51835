// Span collector semantics: disabled-by-default no-op, allocation-ordered
// ids, per-thread parentage, masked-JSON determinism, and thread safety of
// concurrent span open/close and histogram merges under
// CancellableParallelFor (this test is part of the CI TSan subset).
#include "common/trace.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace kelpie {
namespace trace {
namespace {

/// Every test leaves the global collector disabled and empty; the collector
/// is process-global, so hygiene here keeps tests order-independent.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Collector::Global().Disable();
    Collector::Global().Clear();
  }
  void TearDown() override {
    Collector::Global().Disable();
    Collector::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledCollectorRecordsNothing) {
  {
    Span outer("outer");
    Span inner("inner");
  }
  EXPECT_TRUE(Collector::Global().Finished().empty());
}

TEST_F(TraceTest, SpanIdsAreAllocationOrderedAndParentsNest) {
  Collector::Global().Enable();
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  { Span second_root("second_root"); }
  Collector::Global().Disable();

  const std::vector<SpanRecord> spans = Collector::Global().Finished();
  ASSERT_EQ(spans.size(), 3u);
  // Finished() sorts by id = open order, not close order.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "second_root");
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[1].id, 2u);
  EXPECT_EQ(spans[2].id, 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, 0u);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.start_seconds, 0.0) << s.name;
    EXPECT_GE(s.duration_seconds, 0.0) << s.name;
  }
  // The outer span covers the inner one on the steady clock.
  EXPECT_LE(spans[0].start_seconds, spans[1].start_seconds);
  EXPECT_GE(spans[0].duration_seconds, spans[1].duration_seconds);
}

TEST_F(TraceTest, EnableAndClearResetIds) {
  Collector::Global().Enable();
  { Span a("a"); }
  Collector::Global().Clear();
  { Span b("b"); }
  std::vector<SpanRecord> spans = Collector::Global().Finished();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "b");
  EXPECT_EQ(spans[0].id, 1u);

  // Enable() implies Clear(): a fresh recording epoch.
  Collector::Global().Enable();
  { Span c("c"); }
  spans = Collector::Global().Finished();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "c");
  EXPECT_EQ(spans[0].id, 1u);
}

TEST_F(TraceTest, MaskedJsonIsDeterministicAcrossRuns) {
  auto run_workload = [] {
    Collector::Global().Enable();
    {
      Span run("run");
      for (int i = 0; i < 3; ++i) {
        Span step("step");
      }
    }
    Collector::Global().Disable();
    return Collector::Global().ToJson(/*mask_wall_clock=*/true);
  };
  const std::string first = run_workload();
  const std::string second = run_workload();
  EXPECT_EQ(first, second);
  // Below the ring's capacity nothing is dropped and the forest renders
  // exactly as an unbounded list would.
  EXPECT_EQ(Collector::Global().dropped(), 0u);
  EXPECT_EQ(first,
            "[{\"name\":\"run\",\"start_seconds\":\"MASKED\","
            "\"duration_seconds\":\"MASKED\",\"children\":["
            "{\"name\":\"step\",\"start_seconds\":\"MASKED\","
            "\"duration_seconds\":\"MASKED\",\"children\":[]},"
            "{\"name\":\"step\",\"start_seconds\":\"MASKED\","
            "\"duration_seconds\":\"MASKED\",\"children\":[]},"
            "{\"name\":\"step\",\"start_seconds\":\"MASKED\","
            "\"duration_seconds\":\"MASKED\",\"children\":[]}]}]");
}

TEST_F(TraceTest, UnmaskedJsonCarriesTimings) {
  Collector::Global().Enable();
  { Span run("run"); }
  Collector::Global().Disable();
  const std::string json = Collector::Global().ToJson();
  EXPECT_NE(json.find("\"name\":\"run\""), std::string::npos);
  EXPECT_EQ(json.find("MASKED"), std::string::npos);
}

TEST_F(TraceTest, OrphanedChildrenBecomeRoots) {
  Collector::Global().Enable();
  SpanRecord orphan;
  orphan.id = 99;
  orphan.parent = 42;  // 42 never finished (e.g. still open at snapshot)
  orphan.name = "orphan";
  Collector::Global().Record(orphan);
  const std::string json = Collector::Global().ToJson(true);
  EXPECT_NE(json.find("\"name\":\"orphan\""), std::string::npos);
}

// A collector left on (kelpie serve --metrics-out) keeps only the newest
// kCapacity spans; the overwritten ones are counted, and the count reaches
// the snapshot.
TEST_F(TraceTest, RingKeepsNewestSpansAndCountsDrops) {
  constexpr size_t kExtra = 5;
  Collector::Global().Enable();
  for (size_t i = 0; i < Collector::kCapacity + kExtra; ++i) {
    Span span("s");
  }
  Collector::Global().Disable();

  const std::vector<SpanRecord> spans = Collector::Global().Finished();
  ASSERT_EQ(spans.size(), Collector::kCapacity);
  for (size_t i = 0; i < spans.size(); ++i) {
    ASSERT_EQ(spans[i].id, kExtra + 1 + i) << "slot " << i;
  }
  EXPECT_EQ(Collector::Global().dropped(), kExtra);
  EXPECT_NE(ObservabilitySnapshotJson(true).find(
                ",\"spans_dropped\":" + std::to_string(kExtra) + "}"),
            std::string::npos);

  Collector::Global().Clear();
  EXPECT_EQ(Collector::Global().dropped(), 0u);
  EXPECT_TRUE(Collector::Global().Finished().empty());
}

TEST_F(TraceTest, SpanWhoseParentWasOverwrittenRendersAsRoot) {
  Collector::Global().Enable();
  // A parent recorded before its child (the child finished later on another
  // thread) is the oldest record, so the first overflow overwrites it.
  SpanRecord parent;
  parent.id = 1;
  parent.name = "parent";
  Collector::Global().Record(parent);
  SpanRecord child;
  child.id = 2;
  child.parent = 1;
  child.name = "child";
  Collector::Global().Record(child);
  for (size_t i = 0; i < Collector::kCapacity - 1; ++i) {
    SpanRecord filler;
    filler.id = 3 + i;
    filler.name = "f";
    Collector::Global().Record(filler);
  }
  Collector::Global().Disable();

  EXPECT_EQ(Collector::Global().dropped(), 1u);
  const std::string json = Collector::Global().ToJson(true);
  EXPECT_EQ(json.find("\"name\":\"parent\""), std::string::npos);
  EXPECT_EQ(json.rfind("[{\"name\":\"child\",", 0), 0u)
      << json.substr(0, 120);
}

TEST_F(TraceTest, ObservabilitySnapshotCombinesMetricsAndSpans) {
  metrics::ScopedRegistry scoped;
  metrics::Registry::Global()
      .GetCounter("kelpie_snapshot_probe_total", {},
                  metrics::Determinism::kDeterministic)
      .Increment();
  Collector::Global().Enable();
  { Span run("snapshot_probe"); }
  Collector::Global().Disable();
  const std::string json = ObservabilitySnapshotJson(/*mask_wall_clock=*/true);
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("kelpie_snapshot_probe_total"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"snapshot_probe\""), std::string::npos);
  EXPECT_NE(json.find(",\"spans_dropped\":0}"), std::string::npos);
}

// TSan target: spans opened/closed from pool workers while every worker
// merges into one histogram and bumps one counter. Checks both data-race
// freedom (under -fsanitize=thread) and exactness of the lock-free paths.
TEST_F(TraceTest, ConcurrentSpansAndHistogramMergesAreSafe) {
  metrics::ScopedRegistry scoped;
  metrics::Counter& work =
      metrics::Registry::Global().GetCounter("kelpie_trace_work_total");
  metrics::Histogram& sizes = metrics::Registry::Global().GetHistogram(
      "kelpie_trace_sizes", metrics::LinearBuckets(1.0, 1.0, 4));
  Collector::Global().Enable();

  constexpr size_t kIters = 256;
  ThreadPool pool(4);
  ParallelOutcome outcome = CancellableParallelFor(
      &pool, kIters,
      [&](size_t i) {
        Span item("item");
        {
          Span step("step");
          sizes.Observe(static_cast<double>(i % 5));
          work.Increment();
        }
      },
      [] { return Status::Ok(); });
  Collector::Global().Disable();

  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.completed, kIters);
  EXPECT_EQ(work.Value(), kIters);
  EXPECT_EQ(sizes.Count(), kIters);

  const std::vector<SpanRecord> spans = Collector::Global().Finished();
  ASSERT_EQ(spans.size(), 2 * kIters);
  std::set<uint64_t> ids;
  size_t items = 0, steps = 0;
  for (const SpanRecord& s : spans) {
    ids.insert(s.id);
    if (s.name == "item") ++items;
    if (s.name == "step") ++steps;
  }
  EXPECT_EQ(ids.size(), 2 * kIters);  // ids unique under concurrency
  EXPECT_EQ(items, kIters);
  EXPECT_EQ(steps, kIters);
  // Parentage is per-thread: every step's parent is some item span.
  std::set<uint64_t> item_ids;
  for (const SpanRecord& s : spans) {
    if (s.name == "item") item_ids.insert(s.id);
  }
  for (const SpanRecord& s : spans) {
    if (s.name == "step") {
      EXPECT_EQ(item_ids.count(s.parent), 1u) << "step parent " << s.parent;
    }
  }
}

}  // namespace
}  // namespace trace
}  // namespace kelpie
