#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace vist5 {

namespace {

/// Finiteness by bit pattern. The release build compiles with -ffast-math,
/// under which the compiler assumes no inf/nan exist and folds
/// std::isfinite to `true` — so a std::isfinite guard here silently never
/// fires (that is exactly how non-finite rates used to leak into response
/// lines as invalid "inf"/"nan" literals).
bool IsFiniteBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & 0x7ff0000000000000ULL) != 0x7ff0000000000000ULL;
}

}  // namespace

void JsonValue::Append(JsonValue value) {
  VIST5_CHECK(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  VIST5_CHECK(kind_ == Kind::kObject);
  for (auto& kv : object_) {
    if (kv.first == key) {
      kv.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

std::string JsonValue::ToString(bool pretty) const {
  std::string out;
  WriteTo(&out, pretty, 0);
  return out;
}

void JsonValue::EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonValue::WriteTo(std::string* out, bool pretty, int indent) const {
  const std::string pad(pretty ? (indent + 1) * 2 : 0, ' ');
  const std::string close_pad(pretty ? indent * 2 : 0, ' ');
  const char* nl = pretty ? "\n" : "";
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      break;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Kind::kNumber: {
      if (!IsFiniteBits(number_)) {
        // JSON has no inf/nan literal; "%g" would print one and corrupt
        // the whole document for strict readers. Serialize as null — the
        // same convention Parse enforces on the way in.
        out->append("null");
        break;
      }
      if (number_ == std::floor(number_) && std::fabs(number_) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number_));
        out->append(buf);
      } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%g", number_);
        out->append(buf);
      }
      break;
    }
    case Kind::kString:
      EscapeTo(string_, out);
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        out->append("[]");
        break;
      }
      out->append("[");
      out->append(nl);
      for (size_t i = 0; i < array_.size(); ++i) {
        out->append(pad);
        array_[i].WriteTo(out, pretty, indent + 1);
        if (i + 1 < array_.size()) out->append(",");
        out->append(nl);
      }
      out->append(close_pad);
      out->append("]");
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out->append("{}");
        break;
      }
      out->append("{");
      out->append(nl);
      for (size_t i = 0; i < object_.size(); ++i) {
        out->append(pad);
        EscapeTo(object_[i].first, out);
        out->append(pretty ? ": " : ":");
        object_[i].second.WriteTo(out, pretty, indent + 1);
        if (i + 1 < object_.size()) out->append(",");
        out->append(nl);
      }
      out->append(close_pad);
      out->append("}");
      break;
    }
  }
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& kv : object_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

size_t JsonValue::size() const {
  switch (kind_) {
    case Kind::kArray:
      return array_.size();
    case Kind::kObject:
      return object_.size();
    default:
      return 0;
  }
}

const JsonValue& JsonValue::at(size_t i) const {
  VIST5_CHECK(kind_ == Kind::kArray);
  VIST5_CHECK_LT(i, array_.size());
  return array_[i];
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor. Errors carry
/// the byte offset so malformed protocol lines are diagnosable.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    JsonValue v;
    VIST5_RETURN_IF_ERROR(ParseValue(&v, /*depth=*/0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        VIST5_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, JsonValue value, JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) return Error("bad literal");
    pos_ += word.size();
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    // IsFiniteBits, not std::isfinite: -ffast-math folds the latter to
    // true, which would let strtod's "inf"/"nan" spellings through.
    if (end != token.c_str() + token.size() || !IsFiniteBits(value)) {
      pos_ = start;
      return Error("malformed number");
    }
    *out = JsonValue::Number(value);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    VIST5_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          VIST5_RETURN_IF_ERROR(ParseHex4(&code));
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  /// Encodes one code point (no surrogate-pair recombination: lone
  /// surrogates encode as-is, which round-trips our own writer).
  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    VIST5_RETURN_IF_ERROR(Expect('['));
    *out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue element;
      VIST5_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      out->Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      VIST5_RETURN_IF_ERROR(Expect(','));
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    VIST5_RETURN_IF_ERROR(Expect('{'));
    *out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      VIST5_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      VIST5_RETURN_IF_ERROR(Expect(':'));
      JsonValue value;
      VIST5_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      VIST5_RETURN_IF_ERROR(Expect(','));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

bool JsonToInt(const JsonValue& v, long long min_value, long long max_value,
               int* out) {
  if (!v.is_number()) return false;
  const double d = v.number_value();
  if (!(d >= static_cast<double>(min_value)) ||
      !(d <= static_cast<double>(max_value)) || d != std::floor(d)) {
    return false;
  }
  *out = static_cast<int>(d);
  return true;
}

bool ReadIntField(const JsonValue& doc, const char* key, long long min_value,
                  long long max_value, int* out, std::string* error) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    *error = std::string("\"") + key + "\" must be a number";
    return false;
  }
  if (!JsonToInt(*v, min_value, max_value, out)) {
    *error = std::string("\"") + key + "\" must be an integer in [" +
             std::to_string(min_value) + ", " + std::to_string(max_value) +
             "]";
    return false;
  }
  return true;
}

}  // namespace vist5
