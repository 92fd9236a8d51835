#include "timed_model.h"

#include <vector>

namespace kelpie::e2e {

thread_local uint32_t SpanBuffer::current_parent = 0;
thread_local uint32_t SpanBuffer::current_request = 0;

SpanTotals SpanBuffer::Totals() const {
  SpanTotals totals;
  const size_t n = size();
  // Span ids are dense from 1, so children sums index by id directly.
  uint32_t max_id = 0;
  for (size_t i = 0; i < n; ++i) {
    if (records_[i].id > max_id) max_id = records_[i].id;
  }
  std::vector<double> children_ns(static_cast<size_t>(max_id) + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& r = records_[i];
    if (r.parent != 0 && r.parent <= max_id) {
      children_ns[r.parent] += static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& r = records_[i];
    const size_t k = static_cast<size_t>(r.name);
    const double duration = static_cast<double>(r.end_ns - r.start_ns);
    totals.calls[k] += 1;
    totals.ns[k] += duration;
    totals.self_ns[k] += duration - children_ns[r.id];
    if (r.parent == 0 && duration > 0.0) {
      const double err = (children_ns[r.id] - duration) / duration;
      if (err > totals.account_err_max) totals.account_err_max = err;
    }
  }
  return totals;
}

void SpanBuffer::WriteJson(std::FILE* out) const {
  std::fputc('[', out);
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(out,
                 "%s\n{\"id\":%u,\"parent\":%u,\"request\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", r.id, r.parent, r.request,
                 SpanNameString(r.name), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  std::fputc(']', out);
}

}  // namespace kelpie::e2e
