#include "util/json.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace anonsafe {
namespace json {

void Value::Set(const std::string& key, Value v) {
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Value* Value::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

Value* Value::Find(const std::string& key) {
  return const_cast<Value*>(std::as_const(*this).Find(key));
}

Result<double> Value::GetNumber(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("missing number field '" + key + "'");
  }
  if (!v->is_number()) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  return v->AsDouble();
}

Result<double> Value::GetNumberOr(const std::string& key,
                                  double fallback) const {
  const Value* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  return v->AsDouble();
}

Result<std::string> Value::GetString(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("missing string field '" + key + "'");
  }
  if (!v->is_string()) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return v->AsString();
}

Result<std::string> Value::GetStringOr(const std::string& key,
                                       const std::string& fallback) const {
  const Value* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return v->AsString();
}

Result<bool> Value::GetBoolOr(const std::string& key, bool fallback) const {
  const Value* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return v->AsBool();
}

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string NumberToString(double v) {
  if (!std::isfinite(v)) return "null";
  if (std::fabs(v) < 9.007199254740992e15 &&  // 2^53: exact integer range
      v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";  // cannot happen for finite doubles
  return std::string(buf, ptr);
}

void Value::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      *out += NumberToString(number_);
      return;
    case Type::kString:
      *out += EscapeString(string_);
      return;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        *out += EscapeString(object_[i].first);
        out->push_back(':');
        object_[i].second.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

// The parser's word-wide scan reads the first byte as the lowest.
static_assert(std::endian::native == std::endian::little);

/// Recursive-descent parser over a bounded view of the input.
class Parser {
 public:
  Parser(const std::string& text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<Value> Run() {
    SkipWhitespace();
    ANONSAFE_ASSIGN_OR_RETURN(Value v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool ConsumeWord(const char* word) {
    size_t len = 0;
    while (word[len] != '\0') ++len;
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<Value> ParseValue(size_t depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      ANONSAFE_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Value(std::move(s));
    }
    if (ConsumeWord("true")) return Value(true);
    if (ConsumeWord("false")) return Value(false);
    if (ConsumeWord("null")) return Value();
    return ParseNumber();
  }

  Result<Value> ParseObject(size_t depth) {
    ++pos_;  // '{'
    Value out = Value::Object();
    SkipWhitespace();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string object key");
      }
      ANONSAFE_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWhitespace();
      ANONSAFE_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      out.Set(key, std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Fail("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseArray(size_t depth) {
    ++pos_;  // '['
    Value out = Value::Array();
    SkipWhitespace();
    if (Consume(']')) return out;
    while (true) {
      SkipWhitespace();
      ANONSAFE_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      out.Append(std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return Fail("expected ',' or ']' in array");
    }
  }

  /// Returns the offset of the first quote, backslash or byte below 0x20
  /// at or after `from`, or the input's size when there is none. Scans
  /// eight bytes at a time: each has-zero test flags the high bit of its
  /// matching bytes, and its lowest flag is exact (a borrow moves only
  /// upward), so the lowest flag of the three is the first match.
  size_t RunEnd(size_t from) const {
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    const char* const s = text_.data();
    for (; from + 8 <= text_.size(); from += 8) {
      uint64_t w;
      std::memcpy(&w, s + from, sizeof(w));
      const uint64_t quote = w ^ (kOnes * '"');
      const uint64_t backslash = w ^ (kOnes * '\\');
      const uint64_t flags = (((quote - kOnes) & ~quote) |
                              ((backslash - kOnes) & ~backslash) |
                              ((w - kOnes * 0x20) & ~w)) &
                             (kOnes * 0x80);
      if (flags != 0) return from + std::countr_zero(flags) / 8;
    }
    for (; from < text_.size(); ++from) {
      const auto c = static_cast<unsigned char>(s[from]);
      if (c == '"' || c == '\\' || c < 0x20) break;
    }
    return from;
  }

  /// The decoded length of the string whose body starts at `pos_`, or an
  /// upper bound when it holds a \u escape: its raw length, less one
  /// byte per escape.
  size_t DecodedLengthBound() const {
    size_t escapes = 0;
    size_t end = RunEnd(pos_);
    while (end + 1 < text_.size() && text_[end] == '\\') {
      ++escapes;
      end = RunEnd(end + 2);
    }
    return end - pos_ - escapes;
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    out.reserve(DecodedLengthBound());
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control character with one append.
      const size_t run_end = RunEnd(pos_);
      out.append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ >= text_.size()) return Fail("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) return Fail("raw control character in string");
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Fail("dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          ANONSAFE_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              ANONSAFE_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return Fail("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return Fail("lone high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    return v;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
      // sign consumed; digits validated below
    }
    bool any_digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      any_digits = true;
    }
    if (Consume('.')) {
      bool frac = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) return Fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      bool exp = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        exp = true;
      }
      if (!exp) return Fail("digits required in exponent");
    }
    if (!any_digits) return Fail("invalid value");
    double v = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return Fail("number out of range");
    }
    if (!std::isfinite(v)) return Fail("number out of range");
    return Value(v);
  }

  const std::string& text_;
  size_t max_depth_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Value::Parse(const std::string& text, size_t max_depth) {
  return Parser(text, max_depth).Run();
}

}  // namespace json
}  // namespace anonsafe
