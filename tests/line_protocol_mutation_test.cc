// Seeded mutation test over the serve line protocol's reader. Valid request
// lines take byte flips, truncation at every byte, dropped or doubled
// quotes, braces and colons, and oversized numbers in every numeric field;
// each result is fed to ParseRequestLine and PeekLineId, which must end in
// a named Status or a request whose fields are in range and spelled by the
// line — never an abort, and never a saturated number the client did not
// send. Runs under ctest (`ctest -L fuzz`) and in the ASan/UBSan job.
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.h"
#include "serve/line_protocol.h"

namespace kelpie {
namespace serve {
namespace {

constexpr int kRandomMutations = 3000;

const std::vector<std::string>& ValidLines() {
  static const std::vector<std::string> lines = {
      R"({"id":1,"op":"score","head":"Person_8","relation":"nationality",)"
      R"("tail":"Country_4"})",
      R"({"id":2,"op":"explain","head":"Person_8","relation":"nationality",)"
      R"("tail":"Country_4","sufficient":true,"work_budget":200,)"
      R"("timeout":1.5,"shed_after":0.25})",
      R"({"id":3,"op":"ping"})",
      R"({"id":4,"op":"stats"})",
      R"({ "id" : 5 , "op" : "health" })",
      R"({"op":"shutdown","id":6,"extra":null})",
      R"({"id":18446744073709551615,"op":"explain","head":"a",)"
      R"("relation":"r","tail":"b","head_query":true,)"
      R"("work_budget":18446744073709551615,"timeout":0,"shed_after":-1})",
  };
  return lines;
}

/// True when `value` is 0 (a field's default) or its decimal spelling
/// occurs in `line`: the reader may only return numbers the line carries.
bool Spells(const std::string& line, uint64_t value) {
  return value == 0 || line.find(std::to_string(value)) != std::string::npos;
}

/// The invariant every line, valid or mutated, must satisfy.
void ExpectNamedStatusOrInRangeRequest(const std::string& line) {
  Result<LineRequest> r = ParseRequestLine(line);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_FALSE(r.status().message().empty()) << line;
  } else {
    EXPECT_TRUE(r->op == "score" || r->op == "explain" || r->op == "ping" ||
                r->op == "stats" || r->op == "health" || r->op == "shutdown")
        << line;
    EXPECT_TRUE(Spells(line, r->id)) << r->id << " from " << line;
    EXPECT_TRUE(Spells(line, r->work_budget))
        << r->work_budget << " from " << line;
    EXPECT_TRUE(std::isfinite(r->timeout_seconds)) << line;
    EXPECT_GE(r->timeout_seconds, 0.0) << line;
    EXPECT_TRUE(std::isfinite(r->shed_after_seconds)) << line;
  }
  EXPECT_TRUE(Spells(line, PeekLineId(line))) << line;
}

/// One seeded mutation of `line`: a bit flip, a random byte, or a dropped
/// or doubled structural character.
std::string Mutate(const std::string& line, Rng& rng) {
  std::string out = line;
  const auto pick = [&](uint64_t n) { return rng.UniformUint64(n); };
  switch (pick(4)) {
    case 0: {  // bit flip
      const size_t at = pick(out.size());
      out[at] = static_cast<char>(out[at] ^ (1 << pick(8)));
      break;
    }
    case 1:  // arbitrary byte
      out[pick(out.size())] = static_cast<char>(pick(256));
      break;
    default: {  // dropped (case 2) or doubled (case 3) '"', '{', '}' or ':'
      std::vector<size_t> structural;
      for (size_t i = 0; i < out.size(); ++i) {
        if (std::string_view("\"{}:").find(out[i]) != std::string::npos) {
          structural.push_back(i);
        }
      }
      if (structural.empty()) break;
      const size_t at = structural[pick(structural.size())];
      if (pick(2) == 0) {
        out.erase(at, 1);
      } else {
        out.insert(at, 1, out[at]);
      }
      break;
    }
  }
  return out;
}

/// `line` with the value of numeric field `key` replaced by `spelling`.
std::string WithField(const std::string& line, const std::string& key,
                      const std::string& spelling) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  const size_t begin = at + needle.size();
  const size_t end = line.find_first_of(",}", begin);
  return line.substr(0, begin) + spelling + line.substr(end);
}

TEST(LineProtocolMutationTest, ValidLinesParse) {
  for (const std::string& line : ValidLines()) {
    EXPECT_TRUE(ParseRequestLine(line).ok()) << line;
    ExpectNamedStatusOrInRangeRequest(line);
  }
  // The largest in-range values survive exactly.
  Result<LineRequest> max = ParseRequestLine(ValidLines().back());
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->id, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(max->work_budget, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(PeekLineId(ValidLines().back()),
            std::numeric_limits<uint64_t>::max());
}

TEST(LineProtocolMutationTest, TruncationAtEveryByte) {
  for (const std::string& line : ValidLines()) {
    for (size_t n = 0; n < line.size(); ++n) {
      const std::string cut = line.substr(0, n);
      EXPECT_FALSE(ParseRequestLine(cut).ok()) << cut;
      ExpectNamedStatusOrInRangeRequest(cut);
    }
  }
}

TEST(LineProtocolMutationTest, EveryStructuralCharacterDroppedOrDoubled) {
  for (const std::string& line : ValidLines()) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (std::string_view("\"{}:").find(line[i]) == std::string::npos) {
        continue;
      }
      std::string dropped = line;
      dropped.erase(i, 1);
      ExpectNamedStatusOrInRangeRequest(dropped);
      std::string doubled = line;
      doubled.insert(i, 1, line[i]);
      ExpectNamedStatusOrInRangeRequest(doubled);
    }
  }
}

TEST(LineProtocolMutationTest, OversizedNumbersAreRejected) {
  const std::string explain = ValidLines()[1];
  const std::vector<std::string> oversized_integers = {
      "18446744073709551616", "99999999999999999999",
      std::string(400, '9')};
  const std::vector<std::string> oversized_doubles = {
      "1e999", "-1e999", "1e-999", "1" + std::string(400, '0')};
  for (const char* key : {"id", "work_budget"}) {
    for (const std::string& spelling : oversized_integers) {
      const std::string line = WithField(explain, key, spelling);
      Result<LineRequest> r = ParseRequestLine(line);
      ASSERT_FALSE(r.ok()) << line;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find(key), std::string::npos)
          << r.status().ToString();
      ExpectNamedStatusOrInRangeRequest(line);
    }
  }
  for (const std::string& spelling : oversized_integers) {
    EXPECT_EQ(PeekLineId(WithField(explain, "id", spelling)), 0u) << spelling;
  }
  for (const char* key : {"timeout", "shed_after"}) {
    for (const std::string& spelling : oversized_doubles) {
      const std::string line = WithField(explain, key, spelling);
      Result<LineRequest> r = ParseRequestLine(line);
      ASSERT_FALSE(r.ok()) << line;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find(key), std::string::npos)
          << r.status().ToString();
      ExpectNamedStatusOrInRangeRequest(line);
    }
  }
}

TEST(LineProtocolMutationTest, SeededRandomMutations) {
  Rng rng(20240613);
  const std::vector<std::string>& lines = ValidLines();
  for (int i = 0; i < kRandomMutations; ++i) {
    std::string line = lines[rng.UniformUint64(lines.size())];
    // One to three stacked mutations.
    const uint64_t rounds = 1 + rng.UniformUint64(3);
    for (uint64_t k = 0; k < rounds && !line.empty(); ++k) {
      line = Mutate(line, rng);
    }
    ExpectNamedStatusOrInRangeRequest(line);
  }
}

}  // namespace
}  // namespace serve
}  // namespace kelpie
