// Minimal JSON value, writer, and recursive-descent parser.
//
// Exists so exporters and the bench_result schema validator need no
// third-party dependency. Objects preserve insertion order and doubles
// serialize with %.17g (round-trip exact), so a document built from a
// deterministic registry serializes byte-identically everywhere.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jmb::obs {

/// Append `v` formatted with %.17g — integral values print without an
/// exponent or trailing ".0" (1234, not 1.234e3).
void append_json_double(std::string& out, double v);

/// Append `s` as a quoted, escaped JSON string literal.
void append_json_string(std::string& out, std::string_view s);

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Insertion-ordered key/value list (duplicate keys keep the first).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                // NOLINT
  JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}             // NOLINT
  JsonValue(int i) : kind_(Kind::kNumber), num_(i) {}                // NOLINT
  JsonValue(std::uint64_t u)                                         // NOLINT
      : kind_(Kind::kNumber), num_(static_cast<double>(u)) {}
  JsonValue(std::string s)  // NOLINT
      : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}        // NOLINT
  JsonValue(JsonArray a)  // NOLINT
      : kind_(Kind::kArray), arr_(std::move(a)) {}
  JsonValue(JsonObject o)  // NOLINT
      : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const JsonArray& as_array() const { return arr_; }
  [[nodiscard]] const JsonObject& as_object() const { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;

  void append_to(std::string& out) const;
  [[nodiscard]] std::string dump() const {
    std::string out;
    append_to(out);
    return out;
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so an unbounded depth would overflow the stack.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parse a JSON document. On failure returns null (kind kNull) and, when
/// `error` is non-null, stores a message with the byte offset. Nesting
/// deeper than kMaxJsonDepth fails ("nesting deeper than 256").
JsonValue parse_json(std::string_view text, std::string* error = nullptr);

}  // namespace jmb::obs
