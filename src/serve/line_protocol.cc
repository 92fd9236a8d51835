#include "serve/line_protocol.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>

#include "common/metrics.h"

namespace kelpie {
namespace serve {

namespace {

using metrics::FormatDouble;
using metrics::JsonEscape;

/// One parsed flat-JSON value. Numbers keep their spelling; typed readers
/// convert (and diagnose) per field.
struct FlatValue {
  enum class Kind { kString, kNumber, kBool, kNull } kind = Kind::kNull;
  std::string text;   // string contents (unescaped) or number spelling
  bool boolean = false;
};

/// Minimal parser for one flat JSON object: string/number/bool/null values
/// only, no nesting. Positions in errors are byte offsets into the line.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view in) : in_(in) {}

  Result<std::map<std::string, FlatValue>> Parse() {
    std::map<std::string, FlatValue> out;
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return CheckTrailing(std::move(out));
    while (true) {
      SkipSpace();
      std::string key;
      KELPIE_ASSIGN_OR_RETURN(key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key '" + key + "'");
      SkipSpace();
      FlatValue value;
      KELPIE_ASSIGN_OR_RETURN(value, ParseValue(key));
      out[key] = std::move(value);
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return CheckTrailing(std::move(out));
      return Error("expected ',' or '}'");
    }
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("bad request line at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  Result<std::map<std::string, FlatValue>> CheckTrailing(
      std::map<std::string, FlatValue> out) {
    SkipSpace();
    if (pos_ != in_.size()) return Error("trailing bytes after object");
    return out;
  }

  void SkipSpace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) break;
      char esc = in_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        default:
          return Error(std::string("unsupported escape '\\") + esc + "'");
      }
    }
    return Error("unterminated string");
  }

  Result<FlatValue> ParseValue(const std::string& key) {
    FlatValue v;
    if (pos_ < in_.size() && in_[pos_] == '"') {
      v.kind = FlatValue::Kind::kString;
      KELPIE_ASSIGN_OR_RETURN(v.text, ParseString());
      return v;
    }
    if (in_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.kind = FlatValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (in_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.kind = FlatValue::Kind::kBool;
      return v;
    }
    if (in_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return v;
    }
    const size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '-' || in_[pos_] == '+' || in_[pos_] == '.' ||
            in_[pos_] == 'e' || in_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("value of '" + key +
                   "' is neither a string, number, boolean nor null "
                   "(nested objects/arrays are not part of the protocol)");
    }
    v.kind = FlatValue::Kind::kNumber;
    v.text = std::string(in_.substr(start, pos_ - start));
    return v;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

Result<std::string> ReadString(const std::map<std::string, FlatValue>& fields,
                               const std::string& key) {
  auto it = fields.find(key);
  if (it == fields.end()) return std::string();
  if (it->second.kind != FlatValue::Kind::kString) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return it->second.text;
}

Result<bool> ReadBool(const std::map<std::string, FlatValue>& fields,
                      const std::string& key) {
  auto it = fields.find(key);
  if (it == fields.end()) return false;
  if (it->second.kind != FlatValue::Kind::kBool) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return it->second.boolean;
}

Result<double> ReadDouble(const std::map<std::string, FlatValue>& fields,
                          const std::string& key, double fallback) {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (it->second.kind != FlatValue::Kind::kNumber) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  const std::string& raw = it->second.text;
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(raw.c_str(), &end);
  if (end != raw.c_str() + raw.size()) {
    return Status::InvalidArgument("field '" + key + "': bad number '" + raw +
                                   "'");
  }
  // strtod saturates to +-HUGE_VAL (an infinite timeout) or flushes to zero.
  if (errno == ERANGE || !std::isfinite(value)) {
    return Status::InvalidArgument("field '" + key + "': number '" + raw +
                                   "' is out of range");
  }
  return value;
}

Result<uint64_t> ReadU64(const std::map<std::string, FlatValue>& fields,
                         const std::string& key) {
  auto it = fields.find(key);
  if (it == fields.end()) return uint64_t{0};
  if (it->second.kind != FlatValue::Kind::kNumber ||
      it->second.text.empty() || it->second.text[0] == '-') {
    return Status::InvalidArgument("field '" + key +
                                   "' must be a non-negative integer");
  }
  const std::string& raw = it->second.text;
  char* end = nullptr;
  errno = 0;
  uint64_t value = std::strtoull(raw.c_str(), &end, 10);
  if (end != raw.c_str() + raw.size()) {
    return Status::InvalidArgument("field '" + key + "': bad integer '" +
                                   raw + "'");
  }
  // strtoull saturates to 2^64 - 1, an id the client never sent.
  if (errno == ERANGE) {
    return Status::InvalidArgument("field '" + key + "': integer '" + raw +
                                   "' is out of range");
  }
  return value;
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool quote) {
  out->push_back(',');
  out->push_back('"');
  *out += key;
  *out += "\":";
  if (quote) {
    out->push_back('"');
    *out += JsonEscape(value);
    out->push_back('"');
  } else {
    *out += value;
  }
}

std::string LinePrefix(uint64_t id, bool ok) {
  std::string out = "{\"id\":" + std::to_string(id);
  out += ok ? ",\"ok\":true" : ",\"ok\":false";
  return out;
}

}  // namespace

Result<LineRequest> ParseRequestLine(std::string_view line) {
  FlatJsonParser parser(line);
  std::map<std::string, FlatValue> fields;
  KELPIE_ASSIGN_OR_RETURN(fields, parser.Parse());
  LineRequest req;
  KELPIE_ASSIGN_OR_RETURN(req.id, ReadU64(fields, "id"));
  KELPIE_ASSIGN_OR_RETURN(req.op, ReadString(fields, "op"));
  if (req.op.empty()) {
    return Status::InvalidArgument("request line is missing \"op\"");
  }
  if (req.op != "score" && req.op != "explain" && req.op != "ping" &&
      req.op != "stats" && req.op != "shutdown" && req.op != "health") {
    return Status::InvalidArgument("unknown op '" + req.op + "'");
  }
  KELPIE_ASSIGN_OR_RETURN(req.head, ReadString(fields, "head"));
  KELPIE_ASSIGN_OR_RETURN(req.relation, ReadString(fields, "relation"));
  KELPIE_ASSIGN_OR_RETURN(req.tail, ReadString(fields, "tail"));
  KELPIE_ASSIGN_OR_RETURN(req.sufficient, ReadBool(fields, "sufficient"));
  KELPIE_ASSIGN_OR_RETURN(req.head_query, ReadBool(fields, "head_query"));
  KELPIE_ASSIGN_OR_RETURN(req.work_budget, ReadU64(fields, "work_budget"));
  KELPIE_ASSIGN_OR_RETURN(req.timeout_seconds,
                          ReadDouble(fields, "timeout", 0.0));
  KELPIE_ASSIGN_OR_RETURN(req.shed_after_seconds,
                          ReadDouble(fields, "shed_after", -1.0));
  if (req.timeout_seconds < 0.0) {
    return Status::InvalidArgument("field 'timeout' must be non-negative");
  }
  if (req.op == "score" || req.op == "explain") {
    if (req.head.empty() || req.relation.empty() || req.tail.empty()) {
      return Status::InvalidArgument(
          "op '" + req.op + "' needs \"head\", \"relation\" and \"tail\"");
    }
  }
  return req;
}

std::string ScoreResponseLine(uint64_t id, float score) {
  std::string out = LinePrefix(id, true);
  AppendField(&out, "op", "score", true);
  AppendField(&out, "score", FormatDouble(static_cast<double>(score)), false);
  out.push_back('}');
  return out;
}

std::string ExplainResponseLine(uint64_t id, const Explanation& explanation,
                                const std::vector<EntityId>& conversion_set,
                                const Dataset& dataset) {
  std::string out = LinePrefix(id, true);
  AppendField(&out, "op", "explain", true);
  AppendField(&out, "kind", ExplanationKindName(explanation.kind), true);
  AppendField(&out, "accepted", explanation.accepted ? "true" : "false",
              false);
  AppendField(&out, "completeness",
              std::string(CompletenessName(explanation.completeness)), true);
  AppendField(&out, "relevance", FormatDouble(explanation.relevance), false);
  out += ",\"facts\":[";
  for (size_t i = 0; i < explanation.facts.size(); ++i) {
    if (i > 0) out.push_back(',');
    const Triple& fact = explanation.facts[i];
    std::string rendered = dataset.entities().NameOf(fact.head);
    rendered.push_back('\t');
    rendered += dataset.relations().NameOf(fact.relation);
    rendered.push_back('\t');
    rendered += dataset.entities().NameOf(fact.tail);
    out.push_back('"');
    out += JsonEscape(rendered);
    out.push_back('"');
  }
  out.push_back(']');
  AppendField(&out, "skipped",
              std::to_string(explanation.skipped_candidates), false);
  if (explanation.kind == ExplanationKind::kSufficient) {
    out += ",\"conversion\":[";
    for (size_t i = 0; i < conversion_set.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('"');
      out += JsonEscape(dataset.entities().NameOf(conversion_set[i]));
      out.push_back('"');
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

std::string ErrorResponseLine(uint64_t id, const Status& status) {
  std::string out = LinePrefix(id, false);
  AppendField(&out, "code", std::string(StatusCodeName(status.code())), true);
  AppendField(&out, "error", status.message(), true);
  out.push_back('}');
  return out;
}

std::string PingResponseLine(uint64_t id) {
  std::string out = LinePrefix(id, true);
  AppendField(&out, "op", "ping", true);
  out.push_back('}');
  return out;
}

std::string StatsResponseLine(uint64_t id, size_t queue_depth,
                              size_t pool_size, size_t max_queue_depth) {
  std::string out = LinePrefix(id, true);
  AppendField(&out, "op", "stats", true);
  AppendField(&out, "queue_depth", std::to_string(queue_depth), false);
  AppendField(&out, "pool_size", std::to_string(pool_size), false);
  AppendField(&out, "max_queue_depth", std::to_string(max_queue_depth),
              false);
  out.push_back('}');
  return out;
}

std::string HealthResponseLine(uint64_t id, bool draining, bool warm_mimics,
                               size_t cache_entries) {
  std::string out = LinePrefix(id, true);
  AppendField(&out, "op", "health", true);
  AppendField(&out, "state", draining ? "draining" : "ready", true);
  AppendField(&out, "warm_mimics", warm_mimics ? "true" : "false", false);
  AppendField(&out, "cache_entries", std::to_string(cache_entries), false);
  out.push_back('}');
  return out;
}

std::string ShutdownResponseLine(uint64_t id) {
  std::string out = LinePrefix(id, true);
  AppendField(&out, "op", "shutdown", true);
  out.push_back('}');
  return out;
}

uint64_t PeekLineId(std::string_view line) {
  const size_t at = line.find("\"id\":");
  if (at == std::string_view::npos) return 0;
  size_t pos = at + 5;
  uint64_t id = 0;
  while (pos < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[pos]))) {
    const uint64_t digit = static_cast<uint64_t>(line[pos] - '0');
    if (id > (std::numeric_limits<uint64_t>::max() - digit) / 10) return 0;
    id = id * 10 + digit;
    ++pos;
  }
  return id;
}

}  // namespace serve
}  // namespace kelpie
