#ifndef VIST5_UTIL_JSON_H_
#define VIST5_UTIL_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace vist5 {

/// Minimal JSON document value used to emit Vega-Lite specifications and
/// experiment reports, and to parse the line-delimited request protocol of
/// the serving front end (docs/SERVING.md). Object keys preserve insertion
/// order, matching the field order Vega-Lite specs conventionally use.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }

  /// Appends an element; the value must be an array.
  void Append(JsonValue value);

  /// Sets (or overwrites) an object field; the value must be an object.
  void Set(const std::string& key, JsonValue value);

  /// Serializes with 2-space indentation when `pretty` is true.
  std::string ToString(bool pretty = true) const;

  /// Parses one JSON document from `text` (the whole string must be
  /// consumed apart from trailing whitespace). Strict on structure,
  /// lenient on nothing: unquoted keys, trailing commas, and comments are
  /// rejected. `\uXXXX` escapes outside ASCII are decoded to UTF-8.
  static StatusOr<JsonValue> Parse(std::string_view text);

  // --- read accessors (parser-side mirror of the builders) -------------
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed views with fallbacks (no aborts on type mismatch, so protocol
  /// handlers can validate with plain control flow).
  bool bool_value(bool fallback = false) const {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  double number_value(double fallback = 0) const {
    return kind_ == Kind::kNumber ? number_ : fallback;
  }
  const std::string& string_value() const { return string_; }

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Array/object element count (0 for scalars).
  size_t size() const;
  /// Array element `i`; must be an array with i < size().
  const JsonValue& at(size_t i) const;

 private:
  void WriteTo(std::string* out, bool pretty, int indent) const;
  static void EscapeTo(const std::string& s, std::string* out);

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Reads `v` as an int in [min_value, max_value]. False when `v` is not a
/// number, not integral, or out of range — checked before the cast, which
/// is undefined outside int's range.
bool JsonToInt(const JsonValue& v, long long min_value, long long max_value,
               int* out);

/// Reads the optional integer field `key` of object `doc` into *out. An
/// absent field leaves *out untouched; a malformed one sets *error to a
/// message naming the field and its range and returns false. The request
/// wire and trace files both read their numeric fields through this, so
/// they accept the same values.
bool ReadIntField(const JsonValue& doc, const char* key, long long min_value,
                  long long max_value, int* out, std::string* error);

}  // namespace vist5

#endif  // VIST5_UTIL_JSON_H_
