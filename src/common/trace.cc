#include "common/trace.h"

#include <algorithm>
#include <unordered_map>

#include "common/metrics.h"

namespace kelpie {
namespace trace {

namespace {

/// Innermost live span of the current thread; 0 at top level. Pool workers
/// start at 0, so spans opened inside parallel regions parent to the worker
/// top level rather than racing on a shared stack.
thread_local uint64_t t_current_parent = 0;

}  // namespace

Collector& Collector::Global() {
  static Collector* instance = new Collector();  // leaked on purpose
  return *instance;
}

void Collector::Enable() {
  Clear();
  enabled_.store(true, std::memory_order_release);
}

void Collector::Disable() {
  enabled_.store(false, std::memory_order_release);
}

void Collector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
  dropped_ = 0;
  next_id_.store(1, std::memory_order_relaxed);
  origin_ = std::chrono::steady_clock::now();
}

void Collector::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_.size() < kCapacity) {
    finished_.push_back(std::move(record));
    return;
  }
  finished_[dropped_ % kCapacity] = std::move(record);
  ++dropped_;
}

uint64_t Collector::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<SpanRecord> Collector::Finished() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = finished_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return out;
}

namespace {

void AppendSpanJson(
    const SpanRecord& span,
    const std::unordered_map<uint64_t, std::vector<const SpanRecord*>>&
        children,
    bool mask, std::string& out) {
  out += "{\"name\":\"" + metrics::JsonEscape(span.name) + "\"";
  if (mask) {
    out += ",\"start_seconds\":\"MASKED\",\"duration_seconds\":\"MASKED\"";
  } else {
    out += ",\"start_seconds\":" + metrics::FormatDouble(span.start_seconds);
    out +=
        ",\"duration_seconds\":" + metrics::FormatDouble(span.duration_seconds);
  }
  out += ",\"children\":[";
  auto it = children.find(span.id);
  if (it != children.end()) {
    bool first = true;
    for (const SpanRecord* child : it->second) {
      if (!first) out += ",";
      first = false;
      AppendSpanJson(*child, children, mask, out);
    }
  }
  out += "]}";
}

}  // namespace

std::string Collector::ToJson(bool mask_wall_clock) const {
  const std::vector<SpanRecord> spans = Finished();
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  std::unordered_map<uint64_t, bool> known;
  for (const SpanRecord& s : spans) known[s.id] = true;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& s : spans) {
    // A parent that never finished (still open, or opened before Clear) or
    // was overwritten in the ring is not in the forest; treat its children
    // as roots rather than dropping them.
    if (s.parent != 0 && known.count(s.parent) > 0) {
      children[s.parent].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }
  std::string out = "[";
  bool first = true;
  for (const SpanRecord* root : roots) {
    if (!first) out += ",";
    first = false;
    AppendSpanJson(*root, children, mask_wall_clock, out);
  }
  out += "]";
  return out;
}

Span::Span(std::string_view name) {
  Collector& collector = Collector::Global();
  if (!collector.enabled()) return;
  active_ = true;
  name_ = std::string(name);
  id_ = collector.NextId();
  parent_ = t_current_parent;
  t_current_parent = id_;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  Collector& collector = Collector::Global();
  const auto end = std::chrono::steady_clock::now();
  t_current_parent = parent_;
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = std::move(name_);
  record.start_seconds =
      std::chrono::duration<double>(start_ - collector.origin()).count();
  record.duration_seconds = std::chrono::duration<double>(end - start_).count();
  collector.Record(std::move(record));
}

std::string ObservabilitySnapshotJson(bool mask_wall_clock) {
  std::string out = "{\"metrics\":";
  out += metrics::Registry::Global().JsonSnapshot(mask_wall_clock);
  out += ",\"spans\":";
  out += Collector::Global().ToJson(mask_wall_clock);
  out += ",\"spans_dropped\":";
  out += std::to_string(Collector::Global().dropped());
  out += "}";
  return out;
}

}  // namespace trace
}  // namespace kelpie
