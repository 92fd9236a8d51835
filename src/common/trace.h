#ifndef KELPIE_COMMON_TRACE_H_
#define KELPIE_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kelpie {
namespace trace {

/// One finished span: a named steady-clock interval with a parent link.
/// `start_seconds` is measured from the collector's enable/clear instant,
/// so traces from different runs are comparable.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Process-wide span collector, disabled by default. While disabled, Span
/// construction is a single relaxed atomic load and nothing else — no clock
/// reads, no allocation, no lock — so instrumented code paths cost nothing
/// unless a sink (CLI --metrics-out, a test) asks for traces.
///
/// Finished spans live in a ring of kCapacity records: past it each new
/// record overwrites the oldest one and counts as dropped, so a collector
/// left on for a long-running server holds bounded memory. A span whose
/// parent was overwritten renders as a root.
///
/// Concurrent open/close from pool workers is safe (finish records under a
/// mutex). Span *ids* are allocation-ordered: sequential span sites — all
/// of kelpie's production sites (the xp prediction loop, training,
/// evaluation, extraction entry points) — get deterministic ids, so the
/// masked JSON of a seeded run is byte-identical across runs and thread
/// counts. Wall-clock fields are schedule-dependent and print as MASKED in
/// masked snapshots.
class Collector {
 public:
  /// Finished spans kept; older ones are overwritten.
  static constexpr size_t kCapacity = size_t{1} << 16;

  static Collector& Global();

  /// Enables collection and resets the clock origin and span ids.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all finished spans and resets the clock origin, span ids and
  /// dropped count.
  void Clear();

  /// The kept finished spans sorted by id (i.e. open order).
  std::vector<SpanRecord> Finished() const;

  /// Finished spans overwritten since the last Enable or Clear.
  uint64_t dropped() const;

  /// JSON forest of finished spans: roots in id order, children nested.
  /// With `mask_wall_clock`, start/duration render as "MASKED" — structure
  /// and names remain, so masked traces of a seeded run compare equal.
  std::string ToJson(bool mask_wall_clock = false) const;

  // Internal protocol used by Span.
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(SpanRecord record);
  std::chrono::steady_clock::time_point origin() const { return origin_; }

  Collector() = default;
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point origin_{};
  mutable std::mutex mu_;
  /// Ring of finished spans: filled in record order, then slot
  /// `dropped_ % kCapacity` holds the oldest record and is overwritten next.
  std::vector<SpanRecord> finished_;
  uint64_t dropped_ = 0;
};

/// RAII span: opens on construction, records on destruction. A no-op when
/// the global collector is disabled. Parentage is tracked per thread: the
/// innermost live Span on the constructing thread becomes the parent.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  std::string name_;
  std::chrono::steady_clock::time_point start_{};
};

/// Combined observability snapshot of the global registry and collector:
/// `{"metrics": [...], "spans": [...], "spans_dropped": N}`. The CLI's
/// --metrics-out writes this; tests byte-compare it with `mask_wall_clock`
/// on.
std::string ObservabilitySnapshotJson(bool mask_wall_clock = false);

}  // namespace trace
}  // namespace kelpie

#endif  // KELPIE_COMMON_TRACE_H_
