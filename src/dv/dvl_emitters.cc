#include "dv/dvl_emitters.h"

#include <cctype>

#include "util/string_util.h"

namespace vist5 {
namespace dv {
namespace {

/// R string literal with escaped quotes.
std::string RString(const std::string& s) {
  return std::string("\"").append(ReplaceAll(s, "\"", "\\\"")).append("\"");
}

/// R vector literal for one result column: c(...) of numbers or strings.
std::string RVector(const ChartData& chart, int col) {
  bool numeric = true;
  for (const auto& row : chart.result.rows) {
    const db::Value& v = row[static_cast<size_t>(col)];
    if (!v.is_null() && !v.is_numeric()) numeric = false;
  }
  std::string out = "c(";
  for (size_t i = 0; i < chart.result.rows.size(); ++i) {
    if (i) out += ", ";
    const db::Value& v = chart.result.rows[i][static_cast<size_t>(col)];
    if (v.is_null()) {
      out += "NA";
    } else if (numeric) {
      out += v.ToString();
    } else {
      out += RString(v.ToString());
    }
  }
  out += ")";
  return out;
}

/// R symbols cannot contain dots-with-parens etc.; make a clean aes name.
std::string RName(const std::string& column_name) {
  std::string out;
  for (char c : column_name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
               ? c
               : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out = "v_" + out;
  }
  return out;
}

}  // namespace

std::string ToGgplot(const ChartData& chart) {
  const std::string x = chart.column_names.empty()
                            ? "x"
                            : RName(chart.column_names[0]);
  const std::string y = chart.column_names.size() > 1
                            ? RName(chart.column_names[1])
                            : "y";
  std::string out = "library(ggplot2)\n\ndata <- data.frame(\n";
  for (size_t c = 0; c < chart.column_names.size(); ++c) {
    if (c) out += ",\n";
    out += "  " + RName(chart.column_names[c]) + " = " +
           RVector(chart, static_cast<int>(c));
  }
  out += "\n)\n\n";
  switch (chart.chart) {
    case ChartType::kBar:
      out += "ggplot(data, aes(x = " + x + ", y = " + y + ")) +\n"
             "  geom_col()";
      break;
    case ChartType::kPie:
      out += "ggplot(data, aes(x = \"\", y = " + y + ", fill = " + x +
             ")) +\n"
             "  geom_col(width = 1) +\n"
             "  coord_polar(theta = \"y\")";
      break;
    case ChartType::kLine:
      out += "ggplot(data, aes(x = " + x + ", y = " + y + ", group = 1)) +\n"
             "  geom_line()";
      break;
    case ChartType::kScatter:
      out += "ggplot(data, aes(x = " + x + ", y = " + y + ")) +\n"
             "  geom_point()";
      break;
  }
  out += " +\n  labs(x = " + RString(chart.column_names.empty()
                                         ? "x"
                                         : chart.column_names[0]) +
         ", y = " +
         RString(chart.column_names.size() > 1 ? chart.column_names[1] : "y") +
         ")\n";
  return out;
}

JsonValue ToEChartsOption(const ChartData& chart) {
  JsonValue option = JsonValue::Object();
  auto value_json = [](const db::Value& v) {
    if (v.is_null()) return JsonValue::Null();
    if (v.is_numeric()) return JsonValue::Number(v.AsReal());
    return JsonValue::String(v.AsText());
  };

  if (chart.chart == ChartType::kPie) {
    JsonValue series = JsonValue::Array();
    JsonValue pie = JsonValue::Object();
    pie.Set("type", JsonValue::String("pie"));
    JsonValue data = JsonValue::Array();
    for (const auto& row : chart.result.rows) {
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(row[0].ToString()));
      item.Set("value",
               row.size() > 1 ? value_json(row[1]) : JsonValue::Number(1));
      data.Append(std::move(item));
    }
    pie.Set("data", std::move(data));
    series.Append(std::move(pie));
    option.Set("series", std::move(series));
    return option;
  }

  JsonValue x_axis = JsonValue::Object();
  const bool scatter = chart.chart == ChartType::kScatter;
  if (scatter) {
    x_axis.Set("type", JsonValue::String("value"));
  } else {
    x_axis.Set("type", JsonValue::String("category"));
    JsonValue categories = JsonValue::Array();
    for (const auto& row : chart.result.rows) {
      categories.Append(JsonValue::String(row[0].ToString()));
    }
    x_axis.Set("data", std::move(categories));
  }
  if (!chart.column_names.empty()) {
    x_axis.Set("name", JsonValue::String(chart.column_names[0]));
  }
  option.Set("xAxis", std::move(x_axis));

  JsonValue y_axis = JsonValue::Object();
  y_axis.Set("type", JsonValue::String("value"));
  if (chart.column_names.size() > 1) {
    y_axis.Set("name", JsonValue::String(chart.column_names[1]));
  }
  option.Set("yAxis", std::move(y_axis));

  JsonValue series = JsonValue::Array();
  JsonValue s = JsonValue::Object();
  const char* type = chart.chart == ChartType::kBar
                         ? "bar"
                         : (chart.chart == ChartType::kLine ? "line"
                                                            : "scatter");
  s.Set("type", JsonValue::String(type));
  JsonValue data = JsonValue::Array();
  for (const auto& row : chart.result.rows) {
    if (scatter) {
      JsonValue point = JsonValue::Array();
      point.Append(value_json(row[0]));
      point.Append(row.size() > 1 ? value_json(row[1]) : JsonValue::Null());
      data.Append(std::move(point));
    } else {
      data.Append(row.size() > 1 ? value_json(row[1]) : value_json(row[0]));
    }
  }
  s.Set("data", std::move(data));
  series.Append(std::move(s));
  option.Set("series", std::move(series));
  return option;
}

std::string ToEChartsJson(const ChartData& chart) {
  return ToEChartsOption(chart).ToString(/*pretty=*/true);
}

}  // namespace dv
}  // namespace vist5
