#ifndef KELPIE_SERVE_LINE_PROTOCOL_H_
#define KELPIE_SERVE_LINE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/explanation.h"
#include "kgraph/dataset.h"

namespace kelpie {
namespace serve {

/// -----------------------------------------------------------------------
/// `kelpie serve` wire format: newline-delimited JSON, one flat object per
/// line in each direction. Requests:
///
///   {"id":1,"op":"score","head":"Person_8","relation":"nationality",
///    "tail":"Country_4"}
///   {"id":2,"op":"explain","head":"Person_8","relation":"nationality",
///    "tail":"Country_4","sufficient":true,"work_budget":200,
///    "timeout":1.5,"shed_after":0.25}
///   {"id":3,"op":"ping"}   {"id":4,"op":"stats"}   {"id":5,"op":"shutdown"}
///
/// Responses echo the id and set "ok". Response bytes for score/explain are
/// deterministic — doubles print with round-trip precision
/// (metrics::FormatDouble) and wall-clock fields (seconds, post-training
/// counts) are deliberately excluded — so golden tests and the serve-smoke
/// CI job can byte-compare them against one-shot CLI output.
///
/// The parser accepts exactly the flat subset the protocol emits: one JSON
/// object of string/number/boolean values, no nesting, unknown keys
/// ignored (forward compatibility).
/// -----------------------------------------------------------------------

struct LineRequest {
  uint64_t id = 0;
  /// "score", "explain", "ping", "stats", "health" or "shutdown".
  std::string op;
  std::string head;
  std::string relation;
  std::string tail;
  /// explain: sufficient scenario instead of necessary.
  bool sufficient = false;
  /// explain: head query instead of tail query.
  bool head_query = false;
  /// explain: deterministic work-unit budget; 0 = unlimited.
  uint64_t work_budget = 0;
  /// explain: per-request wall-clock extraction timeout; 0 = none.
  double timeout_seconds = 0.0;
  /// score/explain: admission deadline in seconds from receipt — the
  /// request is shed unless execution starts within this window. < 0 (the
  /// default) = no admission deadline; 0 = shed unless the server is idle
  /// enough to start it immediately (used by CI to exercise shedding
  /// deterministically).
  double shed_after_seconds = -1.0;
};

/// Parses one request line. Errors name the offending key or byte offset;
/// a number outside its field's range (an integer past 2^64 - 1, a double
/// that overflows or underflows) is an error, never a saturated value.
Result<LineRequest> ParseRequestLine(std::string_view line);

/// Response renderers. Every renderer returns a complete line *without* the
/// trailing newline; the transport appends it.
std::string ScoreResponseLine(uint64_t id, float score);

/// Deterministic explain rendering: kind, acceptance, completeness,
/// relevance (%.17g), the facts (entity/relation names, tab-separated
/// within a fact), skipped-candidate count, and — for sufficient — the
/// conversion-set entity names. Schedule-dependent fields (seconds, raw
/// post-training counts) are excluded by design.
std::string ExplainResponseLine(uint64_t id, const Explanation& explanation,
                                const std::vector<EntityId>& conversion_set,
                                const Dataset& dataset);

/// {"id":N,"ok":false,"code":"<StatusCodeName>","error":"<message>"}.
std::string ErrorResponseLine(uint64_t id, const Status& status);

std::string PingResponseLine(uint64_t id);
std::string StatsResponseLine(uint64_t id, size_t queue_depth,
                              size_t pool_size, size_t max_queue_depth);
/// {"id":N,"ok":true,"op":"health","state":"ready"|"draining",
///  "warm_mimics":bool,"cache_entries":N} — draining once shutdown has
/// been requested (drain in progress, no new connections); ready
/// otherwise. `warm_mimics` reports whether the pool post-trains from
/// warm-started (stored-embedding-seeded) mimics, `cache_entries` the
/// ready entries of the shared relevance cache (0 when no cache is
/// configured) — together the serving tier's warm state, so a balancer
/// can prefer instances with a hot cache.
std::string HealthResponseLine(uint64_t id, bool draining, bool warm_mimics,
                               size_t cache_entries);
std::string ShutdownResponseLine(uint64_t id);

/// Extracts the "id" field of a response (or request) line without a full
/// parse; 0 when absent or out of range. The client uses it to order
/// collected responses.
uint64_t PeekLineId(std::string_view line);

}  // namespace serve
}  // namespace kelpie

#endif  // KELPIE_SERVE_LINE_PROTOCOL_H_
