#include "dv/encoding.h"

#include <set>

#include "util/string_util.h"

namespace vist5 {
namespace dv {
namespace {

/// Singular/plural tolerant token equality ("artist" matches "artists").
bool TokenMatches(const std::string& a, const std::string& b) {
  if (a == b) return true;
  if (a + "s" == b || b + "s" == a) return true;
  return false;
}

bool NgramMentions(const std::vector<std::string>& grams,
                   const std::string& name) {
  // Multi-word names ("year_join") are compared with underscores mapped to
  // spaces so they can match textual n-grams.
  const std::string spaced = ReplaceAll(name, "_", " ");
  for (const std::string& g : grams) {
    if (TokenMatches(g, name) || TokenMatches(g, spaced)) return true;
  }
  return false;
}

}  // namespace

SchemaSubset FilterSchema(const std::string& question,
                          const db::Database& database) {
  const std::string lower = ToLower(question);
  std::vector<std::string> grams;
  for (int n = 1; n <= 3; ++n) {
    std::vector<std::string> g = WordNgrams(lower, n);
    grams.insert(grams.end(), g.begin(), g.end());
  }
  SchemaSubset subset;
  subset.database = database.name();
  auto add_table = [&subset](const db::Table& t) {
    SchemaSubset::TableColumns tc;
    tc.table = ToLower(t.name());
    for (const db::Column& c : t.columns()) {
      tc.columns.push_back(ToLower(c.name));
    }
    subset.tables.push_back(std::move(tc));
  };
  // Table-name mentions are authoritative; column mentions are only
  // consulted when no table name appears (generic columns like "name"
  // would otherwise drag in unrelated tables).
  for (const db::Table& t : database.tables()) {
    if (NgramMentions(grams, ToLower(t.name()))) add_table(t);
  }
  if (subset.tables.empty()) {
    for (const db::Table& t : database.tables()) {
      for (const db::Column& c : t.columns()) {
        if (NgramMentions(grams, ToLower(c.name))) {
          add_table(t);
          break;
        }
      }
    }
  }
  // Information-loss guard: fall back to the full schema when nothing
  // matched (Sec. III-B keeps the comparison at the table level for the
  // same reason).
  if (subset.tables.empty()) return FullSchema(database);
  return subset;
}

SchemaSubset FullSchema(const db::Database& database) {
  SchemaSubset subset;
  subset.database = database.name();
  for (const db::Table& t : database.tables()) {
    SchemaSubset::TableColumns tc;
    tc.table = ToLower(t.name());
    for (const db::Column& c : t.columns()) {
      tc.columns.push_back(ToLower(c.name));
    }
    subset.tables.push_back(std::move(tc));
  }
  return subset;
}

std::string EncodeSchema(const SchemaSubset& subset) {
  std::string out = ToLower(subset.database);
  for (const auto& tc : subset.tables) {
    out += " | " + tc.table + " :";
    for (size_t i = 0; i < tc.columns.size(); ++i) {
      out += i == 0 ? " " : " , ";
      out += tc.table + "." + tc.columns[i];
    }
  }
  return out;
}

std::string EncodeTable(const std::vector<std::string>& column_names,
                        const std::vector<std::vector<db::Value>>& rows,
                        int max_rows) {
  std::string out = "col :";
  for (size_t i = 0; i < column_names.size(); ++i) {
    if (i > 0) out += " |";
    out.append(" ").append(ToLower(column_names[i]));
  }
  int count = 0;
  for (const auto& row : rows) {
    if (max_rows > 0 && count >= max_rows) break;
    ++count;
    out += " row " + std::to_string(count) + " :";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " |";
      out.append(" ").append(ToLower(row[i].ToString()));
    }
  }
  return out;
}

std::string EncodeTable(const db::Table& table, int max_rows) {
  std::vector<std::string> names;
  for (const db::Column& c : table.columns()) {
    // Standardized encoding qualifies table cells' header too (Sec. III-D).
    names.push_back(ToLower(table.name()) + "." + ToLower(c.name));
  }
  return EncodeTable(names, table.rows(), max_rows);
}

std::string EncodeResultSet(const db::ResultSet& result,
                            const std::vector<std::string>& column_names,
                            int max_rows) {
  return EncodeTable(column_names.empty() ? result.column_names : column_names,
                     result.rows, max_rows);
}

}  // namespace dv
}  // namespace vist5
