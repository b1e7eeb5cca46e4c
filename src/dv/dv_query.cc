#include "dv/dv_query.h"

namespace vist5 {
namespace dv {

const char* ChartTypeName(ChartType t) {
  switch (t) {
    case ChartType::kBar:
      return "bar";
    case ChartType::kPie:
      return "pie";
    case ChartType::kLine:
      return "line";
    case ChartType::kScatter:
      return "scatter";
  }
  return "?";
}

StatusOr<ChartType> ChartTypeFromName(const std::string& name) {
  if (name == "bar") return ChartType::kBar;
  if (name == "pie") return ChartType::kPie;
  if (name == "line") return ChartType::kLine;
  if (name == "scatter") return ChartType::kScatter;
  return Status::InvalidArgument("unknown chart type: " + name);
}

std::string SelectExpr::ToString() const {
  if (agg == db::AggFn::kNone) return col.ToString();
  std::string inner = star ? "*" : col.ToString();
  return std::string(db::AggFnName(agg)) + " ( " + inner + " )";
}

std::string DvPredicate::ToString() const {
  std::string rhs = is_number ? literal : "'" + literal + "'";
  return col.ToString() + " " + db::CmpOpName(op) + " " + rhs;
}

std::string BinClause::ToString() const {
  return "bin " + col.ToString() + " by " +
         (unit == Unit::kDecade ? "decade" : "bucket");
}

std::string DvQuery::ToString() const {
  std::string out = "visualize ";
  out += ChartTypeName(chart);
  out += " select ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i) out += " , ";
    out += select[i].ToString();
  }
  out += " from " + from_table;
  if (join.has_value()) {
    out += " join " + join->table + " on " + join->left.ToString() + " = " +
           join->right.ToString();
  }
  for (size_t i = 0; i < where.size(); ++i) {
    out += i == 0 ? " where " : " and ";
    out += where[i].ToString();
  }
  if (bin.has_value()) {
    out.append(" ").append(bin->ToString());
  }
  if (group_by.has_value()) {
    out += " group by " + group_by->ToString();
  }
  if (order_by.has_value()) {
    out += " order by " + order_by->target.ToString();
    out += order_by->ascending ? " asc" : " desc";
  }
  return out;
}

}  // namespace dv
}  // namespace vist5
