#include "kgraph/io.h"

#include <sstream>

#include "common/atomic_file.h"
#include "common/string_util.h"

namespace kelpie {

Status SaveTriplesTsv(const Dataset& dataset,
                      const std::vector<Triple>& triples,
                      const std::string& path) {
  std::string contents;
  for (const Triple& t : triples) {
    contents += dataset.entities().NameOf(t.head);
    contents += '\t';
    contents += dataset.relations().NameOf(t.relation);
    contents += '\t';
    contents += dataset.entities().NameOf(t.tail);
    contents += '\n';
  }
  return WriteFileAtomic(path, contents);
}

Status SaveDatasetTsv(const Dataset& dataset, const std::string& dir) {
  KELPIE_RETURN_IF_ERROR(
      SaveTriplesTsv(dataset, dataset.train(), dir + "/train.txt"));
  KELPIE_RETURN_IF_ERROR(
      SaveTriplesTsv(dataset, dataset.valid(), dir + "/valid.txt"));
  KELPIE_RETURN_IF_ERROR(
      SaveTriplesTsv(dataset, dataset.test(), dir + "/test.txt"));
  return Status::Ok();
}

Result<std::vector<Triple>> ParseTriplesTsv(const std::string& text,
                                            Dictionary& entities,
                                            Dictionary& relations,
                                            const std::string& source) {
  const std::string where = source.empty() ? "" : source + ": ";
  std::vector<Triple> out;
  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (StripWhitespace(line).empty()) continue;
    // Split the raw line: stripping first would swallow empty head/tail
    // fields into the neighboring tab and misreport them as a field-count
    // problem. Per-field stripping below handles surrounding spaces and \r.
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          where + "line " + std::to_string(line_no) +
          ": expected 3 tab-separated fields, got " +
          std::to_string(fields.size()));
    }
    std::string_view head = StripWhitespace(fields[0]);
    std::string_view relation = StripWhitespace(fields[1]);
    std::string_view tail = StripWhitespace(fields[2]);
    if (head.empty() || relation.empty() || tail.empty()) {
      const char* which = head.empty() ? "head"
                          : relation.empty() ? "relation"
                                             : "tail";
      return Status::InvalidArgument(where + "line " +
                                     std::to_string(line_no) + ": empty " +
                                     which + " field");
    }
    EntityId h = entities.GetOrAdd(head);
    RelationId r = relations.GetOrAdd(relation);
    EntityId t = entities.GetOrAdd(tail);
    out.emplace_back(h, r, t);
  }
  return out;
}

Result<Dataset> LoadDatasetTsv(const std::string& name,
                               const std::string& dir) {
  Dictionary entities;
  Dictionary relations;
  std::string text;
  KELPIE_ASSIGN_OR_RETURN(text, ReadWholeFile(dir + "/train.txt"));
  std::vector<Triple> train;
  KELPIE_ASSIGN_OR_RETURN(
      train, ParseTriplesTsv(text, entities, relations, dir + "/train.txt"));
  KELPIE_ASSIGN_OR_RETURN(text, ReadWholeFile(dir + "/valid.txt"));
  std::vector<Triple> valid;
  KELPIE_ASSIGN_OR_RETURN(
      valid, ParseTriplesTsv(text, entities, relations, dir + "/valid.txt"));
  KELPIE_ASSIGN_OR_RETURN(text, ReadWholeFile(dir + "/test.txt"));
  std::vector<Triple> test;
  KELPIE_ASSIGN_OR_RETURN(
      test, ParseTriplesTsv(text, entities, relations, dir + "/test.txt"));
  return Dataset(name, std::move(entities), std::move(relations),
                 std::move(train), std::move(valid), std::move(test));
}

}  // namespace kelpie
