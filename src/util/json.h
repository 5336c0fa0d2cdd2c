#ifndef ANONSAFE_UTIL_JSON_H_
#define ANONSAFE_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace anonsafe {
namespace json {

/// \brief A minimal JSON document model shared by every JSON producer and
/// consumer in the library (RiskReport serialization, the serve protocol,
/// belief/metrics tooling). One emitter and one parser means a value that
/// round-trips through any layer is *bit-identical* text everywhere — the
/// property the server's golden tests and the CLI/server response parity
/// rely on.
///
/// Objects preserve insertion order on output (lookup is linear; protocol
/// objects are small), numbers are doubles rendered with the shortest
/// round-trip representation, and parsing enforces depth and size guards
/// so the server can feed it untrusted lines.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(int64_t i)
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  explicit Value(uint64_t u)
      : type_(Type::kNumber), number_(static_cast<double>(u)) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(const char* s) : type_(Type::kString), string_(s) {}

  static Value Array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// \name Unchecked accessors (call only after the matching is_*()).
  /// @{
  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& items() const { return array_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return object_;
  }
  /// @}

  /// \brief Appends to an array value (the value must be an array).
  void Append(Value v) { array_.push_back(std::move(v)); }

  /// \brief Sets `key` on an object value: replaces an existing member in
  /// place (keeping its position) or appends a new one.
  void Set(const std::string& key, Value v);

  /// \brief Member lookup on an object; nullptr when absent or not an
  /// object.
  const Value* Find(const std::string& key) const;
  Value* Find(const std::string& key);

  /// \name Checked member readers for protocol parsing. Each returns the
  /// coerced member or an InvalidArgument naming the key.
  /// @{
  Result<double> GetNumber(const std::string& key) const;
  Result<double> GetNumberOr(const std::string& key, double fallback) const;
  Result<std::string> GetString(const std::string& key) const;
  Result<std::string> GetStringOr(const std::string& key,
                                  const std::string& fallback) const;
  Result<bool> GetBoolOr(const std::string& key, bool fallback) const;
  /// @}

  /// \brief Serializes compactly (no whitespace), members in insertion
  /// order, numbers in shortest round-trip form. Deterministic: equal
  /// values dump to equal bytes.
  std::string Dump() const;

  /// \brief Parses a complete JSON document. Trailing non-whitespace,
  /// nesting beyond `max_depth`, invalid escapes, and non-finite number
  /// literals are InvalidArgument errors.
  static Result<Value> Parse(const std::string& text, size_t max_depth = 64);

 private:
  void DumpTo(std::string* out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// \brief Escapes and quotes `s` as a JSON string literal.
std::string EscapeString(const std::string& s);

/// \brief Renders a double in the shortest form that parses back to the
/// same bits (integral values without a fraction part). NaN/Inf — which
/// JSON cannot represent — render as `null`.
std::string NumberToString(double v);

}  // namespace json
}  // namespace anonsafe

#endif  // ANONSAFE_UTIL_JSON_H_
