#include "data/nvbench_gen.h"

#include <cctype>
#include <set>

#include "dv/chart.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace vist5 {
namespace data {
namespace {

using dv::ChartType;
using dv::ColumnRef;
using dv::DvQuery;
using dv::SelectExpr;

/// Usable columns of one table: categorical columns work as GROUP BY keys /
/// x-axes, numeric columns as measures. Key columns (*_id) are excluded.
struct TableProfile {
  const db::Table* table = nullptr;
  std::vector<int> categorical;
  std::vector<int> numeric;
};

bool IsIdColumn(const std::string& name) { return EndsWith(name, "_id"); }

TableProfile ProfileTable(const db::Table& table) {
  TableProfile p;
  p.table = &table;
  for (int i = 0; i < table.num_columns(); ++i) {
    const db::Column& c = table.columns()[static_cast<size_t>(i)];
    if (IsIdColumn(c.name)) continue;
    if (c.type == db::ValueType::kText || c.name == "year") {
      p.categorical.push_back(i);
    } else {
      p.numeric.push_back(i);
    }
  }
  return p;
}

ColumnRef Ref(const db::Table& t, int col) {
  return {t.name(), t.columns()[static_cast<size_t>(col)].name};
}

SelectExpr Plain(const ColumnRef& c) {
  SelectExpr e;
  e.col = c;
  return e;
}

SelectExpr Agg(db::AggFn fn, const ColumnRef& c) {
  SelectExpr e;
  e.agg = fn;
  e.col = c;
  return e;
}

const char* AggWord(db::AggFn fn) {
  switch (fn) {
    case db::AggFn::kCount:
      return "number of";
    case db::AggFn::kSum:
      return "total";
    case db::AggFn::kAvg:
      return "average";
    case db::AggFn::kMin:
      return "minimum";
    case db::AggFn::kMax:
      return "maximum";
    case db::AggFn::kNone:
      return "";
  }
  return "";
}

std::string ChartWord(ChartType t, Rng* rng) {
  switch (t) {
    case ChartType::kBar:
      return rng->Bernoulli(0.5) ? "bar chart" : "bar graph";
    case ChartType::kPie:
      return "pie chart";
    case ChartType::kLine:
      return "line chart";
    case ChartType::kScatter:
      return rng->Bernoulli(0.5) ? "scatter plot" : "scatter chart";
  }
  return "chart";
}

/// Human word for a column in NL questions: underscores become spaces half
/// the time ("year_join" vs "year join").
std::string ColWord(const std::string& column, Rng* rng) {
  if (Contains(column, "_") && rng->Bernoulli(0.5)) {
    return ReplaceAll(column, "_", " ");
  }
  return column;
}

std::string OrderPhraseQuestion(const DvQuery& q, Rng* rng) {
  if (!q.order_by.has_value()) return "";
  const bool on_y = q.select.size() > 1 &&
                    q.order_by->target == q.select[1];
  const char* axis = on_y ? "y" : "x";
  if (q.order_by->ascending) {
    switch (rng->UniformInt(3)) {
      case 0:
        return std::string(", and order the ") + axis +
               " axis in ascending order";
      case 1:
        return std::string(", and show from low to high by the ") + axis +
               " axis";
      default:
        return std::string(", and rank by the ") + axis + " axis in asc";
    }
  }
  switch (rng->UniformInt(3)) {
    case 0:
      return std::string(", and order the ") + axis +
             " axis in descending order";
    case 1:
      return std::string(", and show from high to low by the ") + axis +
             " axis";
    default:
      return std::string(", and rank by the ") + axis + " axis in desc";
  }
}

const char* CmpWord(db::CmpOp op) {
  switch (op) {
    case db::CmpOp::kEq:
      return "is";
    case db::CmpOp::kNe:
      return "is not";
    case db::CmpOp::kGt:
      return "is greater than";
    case db::CmpOp::kGe:
      return "is at least";
    case db::CmpOp::kLt:
      return "is less than";
    case db::CmpOp::kLe:
      return "is at most";
    case db::CmpOp::kLike:
      return "contains";
  }
  return "is";
}

std::string WherePhrase(const DvQuery& q, Rng* rng) {
  if (q.where.empty()) return "";
  const dv::DvPredicate& p = q.where[0];
  std::string out = rng->Bernoulli(0.5) ? " whose " : " where the ";
  out += ColWord(p.col.column, rng);
  out += " ";
  out += CmpWord(p.op);
  out += " ";
  out += p.literal;
  return out;
}

/// NL question templates per query shape.
std::string QuestionFor(const DvQuery& q, Rng* rng) {
  const std::string chart = ChartWord(q.chart, rng);
  const std::string table = q.from_table;
  const std::string x = ColWord(q.select[0].col.column, rng);
  const std::string order = OrderPhraseQuestion(q, rng);
  const std::string where = WherePhrase(q, rng);

  const bool grouped = q.group_by.has_value();
  const SelectExpr& y = q.select.size() > 1 ? q.select[1] : q.select[0];

  if (grouped && y.agg == db::AggFn::kCount && q.select.size() == 2) {
    const std::string join_bit =
        q.join ? " and their " + q.join->table + " records" : "";
    switch (rng->UniformInt(4)) {
      case 0:
        return "give me a " + chart + " about the proportion of the number of " +
               table + " records" + join_bit + " for each " + x + where +
               order + ".";
      case 1:
        return "how many " + table + " entries" + join_bit + " are there for each " +
               x + where + "? show a " + chart + order + ".";
      case 2:
        return "draw a " + chart + " for the count of " + table + " grouped by " +
               x + where + order + ".";
      default:
        return "show the number of " + table + " records" + join_bit +
               " in each " + x + " with a " + chart + where + order + ".";
    }
  }
  if (grouped && q.select.size() == 3) {
    // Two aggregates over the same measure (Table V shape).
    const std::string measure = ColWord(q.select[1].col.column, rng);
    return std::string("just show the ") + AggWord(q.select[1].agg) + " and " +
           AggWord(q.select[2].agg) + " " + measure + " of the " + table +
           " in different " + x + " using a " + chart + where + order + ".";
  }
  if (grouped && y.agg != db::AggFn::kNone) {
    const std::string measure = ColWord(y.col.column, rng);
    const std::string from_bit =
        q.join ? table + " joined with " + q.join->table : table;
    switch (rng->UniformInt(3)) {
      case 0:
        return "show the " + std::string(AggWord(y.agg)) + " " + measure +
               " of " + from_bit + " for each " + x + " using a " + chart +
               where + order + ".";
      case 1:
        return "what is the " + std::string(AggWord(y.agg)) + " " + measure +
               " grouped by " + x + " in " + from_bit + "? plot a " + chart +
               where + order + ".";
      default:
        return "draw a " + chart + " showing the " + std::string(AggWord(y.agg)) +
               " " + measure + " across different " + x + " in the " + from_bit +
               " table" + where + order + ".";
    }
  }
  // Ungrouped pair of columns.
  const std::string y_word = ColWord(y.col.column, rng);
  switch (rng->UniformInt(3)) {
    case 0:
      return "plot a " + chart + " of " + x + " versus " + y_word + " from " +
             table + where + order + ".";
    case 1:
      return "show the relationship between " + x + " and " + y_word + " in " +
             table + " with a " + chart + where + order + ".";
    default:
      return "list " + x + " and " + y_word + " of " + table + where +
             " in a " + chart + order + ".";
  }
}

}  // namespace

std::string DescribeQuery(const DvQuery& q, Rng* rng) {
  const char* chart_name = dv::ChartTypeName(q.chart);
  std::string what;
  const bool grouped = q.group_by.has_value();
  const SelectExpr& y = q.select.size() > 1 ? q.select[1] : q.select[0];
  if (grouped && q.select.size() == 3) {
    what = std::string("the ") + AggWord(q.select[1].agg) + " and " +
           AggWord(q.select[2].agg) + " " + q.select[1].col.column;
  } else if (y.agg == db::AggFn::kCount) {
    what = "the number of " + q.from_table + " records";
  } else if (y.agg != db::AggFn::kNone) {
    what = std::string("the ") + AggWord(y.agg) + " " + y.col.column;
  } else {
    what = q.select[0].col.column + " and " + y.col.column;
  }
  std::string out = std::string("a ") + chart_name + " chart showing " + what;
  if (grouped) out += " for each " + q.group_by->column;
  out += " in the " + q.from_table + " table";
  if (q.join) out += " joined with the " + q.join->table + " table";
  if (!q.where.empty()) {
    const dv::DvPredicate& p = q.where[0];
    out += ", restricted to rows whose " + p.col.column + " " +
           CmpWord(p.op) + " " + p.literal;
  }
  if (q.order_by.has_value()) {
    const bool on_y = q.select.size() > 1 && q.order_by->target == q.select[1];
    if (rng->Bernoulli(0.5)) {
      out += std::string(", sorted by the ") + (on_y ? "y" : "x") +
             " axis in " + (q.order_by->ascending ? "ascending" : "descending") +
             " order";
    } else {
      out += std::string(", with the ") + (on_y ? "y" : "x") + " axis shown " +
             (q.order_by->ascending ? "from low to high" : "from high to low");
    }
  }
  out += ".";
  return out;
}

std::string AnnotatorStyle(const DvQuery& q, Rng* rng) {
  auto kw = [&](const char* lower, const char* upper) {
    return std::string(rng->Bernoulli(0.5) ? upper : lower);
  };
  const bool use_alias = q.join.has_value() && rng->Bernoulli(0.6);
  auto table_name = [&](const std::string& t) -> std::string {
    if (!use_alias) return t;
    if (t == q.from_table) return "T1";
    return "T2";
  };
  auto ref_str = [&](const ColumnRef& c) {
    return table_name(c.table) + "." + c.column;
  };
  auto expr_str = [&](const SelectExpr& e) -> std::string {
    if (e.agg == db::AggFn::kNone) return ref_str(e.col);
    std::string fn = db::AggFnName(e.agg);
    if (rng->Bernoulli(0.5)) {
      for (char& ch : fn) {
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      }
    }
    // COUNT over the group key contracts to COUNT(*).
    if (e.agg == db::AggFn::kCount && q.group_by.has_value() &&
        e.col == *q.group_by && rng->Bernoulli(0.5)) {
      return fn + "(*)";
    }
    return fn + "(" + ref_str(e.col) + ")";
  };

  // Chained appends rather than `" " + ...` chains, on which GCC 12 at -O3
  // reports a false -Wrestrict; a chained append also evaluates left to
  // right, so the draws keep their order.
  std::string out = kw("visualize", "VISUALIZE");
  out.append(" ").append(dv::ChartTypeName(q.chart));
  out.append(" ").append(kw("select", "SELECT")).append(" ");
  for (size_t i = 0; i < q.select.size(); ++i) {
    if (i) out += ", ";
    out += expr_str(q.select[i]);
  }
  out.append(" ").append(kw("from", "FROM")).append(" ").append(q.from_table);
  if (use_alias) out.append(" ").append(kw("as", "AS")).append(" T1");
  if (q.join.has_value()) {
    out.append(" ").append(kw("join", "JOIN")).append(" ");
    out += q.join->table;
    if (use_alias) out.append(" ").append(kw("as", "AS")).append(" T2");
    out.append(" ").append(kw("on", "ON")).append(" ");
    out += ref_str(q.join->left) + " = " + ref_str(q.join->right);
  }
  for (size_t i = 0; i < q.where.size(); ++i) {
    out.append(" ")
        .append(i == 0 ? kw("where", "WHERE") : kw("and", "AND"))
        .append(" ");
    const dv::DvPredicate& p = q.where[i];
    out += ref_str(p.col) + " " + db::CmpOpName(p.op) + " ";
    if (p.is_number) {
      out += p.literal;
    } else {
      const char quote = rng->Bernoulli(0.5) ? '"' : '\'';
      out += quote + p.literal + quote;
    }
  }
  if (q.group_by.has_value()) {
    out.append(" ").append(kw("group by", "GROUP BY")).append(" ");
    // Annotators frequently drop the qualifier on the group key.
    out += rng->Bernoulli(0.5) ? q.group_by->column : ref_str(*q.group_by);
  }
  if (q.order_by.has_value()) {
    // The target draws before the keyword: the generated corpus depends on
    // the order of the draws.
    const std::string target = expr_str(q.order_by->target);
    out.append(" ").append(kw("order by", "ORDER BY")).append(" ");
    out += target;
    if (!q.order_by->ascending) {
      out.append(" ").append(kw("desc", "DESC"));
    } else if (rng->Bernoulli(0.5)) {
      out.append(" ").append(kw("asc", "ASC"));
    }
  }
  return out;
}

namespace {

/// Builds one candidate query for `database`; returns false when the
/// database lacks the needed column types.
bool BuildQuery(const db::Database& database, Rng* rng, DvQuery* out) {
  std::vector<TableProfile> profiles;
  for (const db::Table& t : database.tables()) {
    profiles.push_back(ProfileTable(t));
  }
  // Join shape: requires a foreign key.
  const bool want_join =
      !database.foreign_keys().empty() && rng->Bernoulli(0.4);

  DvQuery q;
  if (want_join) {
    const db::ForeignKey& fk =
        database.foreign_keys()[static_cast<size_t>(rng->UniformInt(
            static_cast<int>(database.foreign_keys().size())))];
    const db::Table* primary = database.FindTable(fk.to_table);
    const db::Table* secondary = database.FindTable(fk.from_table);
    if (primary == nullptr || secondary == nullptr) return false;
    TableProfile pp = ProfileTable(*primary);
    TableProfile sp = ProfileTable(*secondary);
    if (pp.categorical.empty()) return false;
    // FROM primary JOIN secondary; x from primary, y aggregated from
    // secondary.
    q.from_table = primary->name();
    dv::JoinSpec join;
    join.table = secondary->name();
    join.left = {primary->name(), fk.to_column};
    join.right = {secondary->name(), fk.from_column};
    q.join = join;
    const ColumnRef x = Ref(*primary, rng->Choice(pp.categorical));
    q.select.push_back(Plain(x));
    if (sp.numeric.empty() || rng->Bernoulli(0.5)) {
      // Count of joined records per group.
      const ColumnRef cnt = {secondary->name(),
                             secondary->columns()[0].name};
      q.select.push_back(Agg(db::AggFn::kCount, cnt));
    } else {
      const db::AggFn fns[] = {db::AggFn::kSum, db::AggFn::kAvg,
                               db::AggFn::kMin, db::AggFn::kMax};
      q.select.push_back(
          Agg(fns[rng->UniformInt(4)], Ref(*secondary, rng->Choice(sp.numeric))));
    }
    q.group_by = x;
    q.chart = rng->Bernoulli(0.7) ? ChartType::kBar : ChartType::kPie;
  } else {
    // Pick a table that supports the chosen shape.
    std::vector<int> usable;
    for (size_t i = 0; i < profiles.size(); ++i) {
      if (!profiles[i].categorical.empty()) usable.push_back(static_cast<int>(i));
    }
    if (usable.empty()) return false;
    const TableProfile& p =
        profiles[static_cast<size_t>(rng->Choice(usable))];
    const db::Table& t = *p.table;
    q.from_table = t.name();
    const int shape = rng->UniformInt(10);
    const ColumnRef x = Ref(t, rng->Choice(p.categorical));
    if (shape < 4) {
      // S1: group-count.
      q.select.push_back(Plain(x));
      q.select.push_back(Agg(db::AggFn::kCount, x));
      q.group_by = x;
      q.chart = rng->Bernoulli(0.6) ? ChartType::kBar : ChartType::kPie;
    } else if (shape < 7 && !p.numeric.empty()) {
      // S2: aggregate of a measure per group.
      const db::AggFn fns[] = {db::AggFn::kSum, db::AggFn::kAvg,
                               db::AggFn::kMin, db::AggFn::kMax};
      q.select.push_back(Plain(x));
      q.select.push_back(Agg(fns[rng->UniformInt(4)],
                             Ref(t, rng->Choice(p.numeric))));
      q.group_by = x;
      q.chart = x.column == "year" && rng->Bernoulli(0.5)
                    ? ChartType::kLine
                    : (rng->Bernoulli(0.7) ? ChartType::kBar
                                           : ChartType::kScatter);
    } else if (shape < 8 && !p.numeric.empty()) {
      // S2b: two aggregates of one measure (the Table V case study shape).
      const ColumnRef measure = Ref(t, rng->Choice(p.numeric));
      const db::AggFn first[] = {db::AggFn::kAvg, db::AggFn::kSum};
      const db::AggFn second[] = {db::AggFn::kMin, db::AggFn::kMax};
      q.select.push_back(Plain(x));
      q.select.push_back(Agg(first[rng->UniformInt(2)], measure));
      q.select.push_back(Agg(second[rng->UniformInt(2)], measure));
      q.group_by = x;
      q.chart = ChartType::kScatter;
    } else if (p.numeric.size() >= 2) {
      // S3: two raw measures.
      const int a = rng->Choice(p.numeric);
      int b = rng->Choice(p.numeric);
      for (int tries = 0; tries < 8 && b == a; ++tries) b = rng->Choice(p.numeric);
      if (b == a) return false;
      q.select.push_back(Plain(Ref(t, a)));
      q.select.push_back(Plain(Ref(t, b)));
      q.chart = ChartType::kScatter;
    } else if (!p.numeric.empty()) {
      // S4: raw category + measure, usually filtered.
      q.select.push_back(Plain(x));
      q.select.push_back(Plain(Ref(t, rng->Choice(p.numeric))));
      q.chart = ChartType::kBar;
    } else {
      return false;
    }

    // Optional WHERE on a different categorical column with a real value.
    if (rng->Bernoulli(0.3) && t.num_rows() > 0) {
      std::vector<int> candidates;
      for (int c : p.categorical) {
        if (q.group_by.has_value() &&
            t.columns()[static_cast<size_t>(c)].name == q.group_by->column) {
          continue;
        }
        candidates.push_back(c);
      }
      if (!candidates.empty()) {
        const int c = rng->Choice(candidates);
        const db::Value v = t.At(rng->UniformInt(t.num_rows()), c);
        dv::DvPredicate pred;
        pred.col = Ref(t, c);
        if (v.is_numeric()) {
          pred.op = rng->Bernoulli(0.5) ? db::CmpOp::kGt : db::CmpOp::kLe;
          pred.literal = v.ToString();
          pred.is_number = true;
          pred.number = v.AsReal();
        } else {
          pred.op = db::CmpOp::kEq;
          pred.literal = v.AsText();
          pred.is_number = false;
        }
        q.where.push_back(pred);
      }
    }
  }

  // Optional ORDER BY one of the select expressions.
  if (q.select.size() >= 2 && rng->Bernoulli(0.5)) {
    dv::OrderBy order;
    order.target = rng->Bernoulli(0.6) ? q.select[1] : q.select[0];
    order.ascending = rng->Bernoulli(0.5);
    order.direction_explicit = true;
    q.order_by = order;
  }
  *out = q;
  return true;
}

}  // namespace

std::vector<NvBenchExample> GenerateNvBench(
    const db::Catalog& catalog, const std::map<std::string, Split>& splits,
    const NvBenchOptions& options) {
  Rng rng(options.seed);
  std::vector<NvBenchExample> corpus;
  for (const db::Database& database : catalog.databases()) {
    std::set<std::string> seen;
    int produced = 0;
    int attempts = 0;
    while (produced < options.pairs_per_db &&
           attempts < options.pairs_per_db * 12) {
      ++attempts;
      DvQuery q;
      if (!BuildQuery(database, &rng, &q)) continue;
      const std::string query_str = q.ToString();
      if (seen.count(query_str) > 0) continue;
      // Only keep executable, non-empty charts.
      auto chart = dv::RenderChart(q, database);
      if (!chart.ok() || chart->num_points() == 0) continue;
      seen.insert(query_str);

      NvBenchExample ex;
      ex.database = database.name();
      ex.query = query_str;
      ex.raw_query = AnnotatorStyle(q, &rng);
      ex.question = QuestionFor(q, &rng);
      ex.description = DescribeQuery(q, &rng);
      ex.has_join = q.has_join();
      auto it = splits.find(database.name());
      ex.split = it != splits.end() ? it->second : Split::kTrain;
      corpus.push_back(std::move(ex));
      ++produced;
    }
  }
  return corpus;
}

}  // namespace data
}  // namespace vist5
