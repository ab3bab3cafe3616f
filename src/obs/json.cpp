#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace jmb::obs {

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN
    out += v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
    return;
  }
  char buf[32];
  // Integral values within uint64/int64 range print exactly, no exponent.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_json_double(out, num_);
      break;
    case Kind::kString:
      append_json_string(out, str_);
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& v : arr_) {
        if (!first) out += ',';
        first = false;
        v.append_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        append_json_string(out, k);
        out += ':';
        v.append_to(out);
      }
      out += '}';
      break;
    }
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse(std::string* error) {
    JsonValue v = parse_value();
    skip_ws();
    if (!failed_ && pos_ != text_.size()) fail("trailing characters");
    if (failed_) {
      if (error) {
        *error = message_ + " at byte " + std::to_string(err_pos_);
      }
      return JsonValue();
    }
    return v;
  }

 private:
  void fail(const char* msg) {
    if (!failed_) {
      failed_ = true;
      message_ = msg;
      err_pos_ = pos_;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    fail("invalid literal");
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (failed_ || pos_ >= text_.size()) {
      fail("unexpected end of input");
      return JsonValue();
    }
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth_ == kMaxJsonDepth) {
      static const std::string msg =
          "nesting deeper than " + std::to_string(kMaxJsonDepth);
      fail(msg.c_str());
      return JsonValue();
    }
    switch (c) {
      case '{': return nested([this] { return parse_object(); });
      case '[': return nested([this] { return parse_array(); });
      case '"': return JsonValue(parse_string());
      case 't': return expect_literal("true") ? JsonValue(true) : JsonValue();
      case 'f': return expect_literal("false") ? JsonValue(false) : JsonValue();
      case 'n': expect_literal("null"); return JsonValue();
      default: return parse_number();
    }
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) {
      fail("expected string");
      return out;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return out;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
                return out;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs kept as-is).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("bad escape");
            return out;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("expected number");
      return JsonValue();
    }
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      fail("malformed number");
      return JsonValue();
    }
    return JsonValue(v);
  }

  /// `parse` one level deeper.
  template <class Parse>
  JsonValue nested(Parse parse) {
    ++depth_;
    JsonValue v = parse();
    --depth_;
    return v;
  }

  JsonValue parse_array() {
    JsonArray arr;
    consume('[');
    skip_ws();
    if (consume(']')) return JsonValue(std::move(arr));
    while (!failed_) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(']')) return JsonValue(std::move(arr));
      if (!consume(',')) {
        fail("expected ',' or ']'");
        break;
      }
    }
    return JsonValue();
  }

  JsonValue parse_object() {
    JsonObject obj;
    consume('{');
    skip_ws();
    if (consume('}')) return JsonValue(std::move(obj));
    while (!failed_) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      if (!consume(':')) {
        fail("expected ':'");
        break;
      }
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) return JsonValue(std::move(obj));
      if (!consume(',')) {
        fail("expected ',' or '}'");
        break;
      }
    }
    return JsonValue();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string message_;
  std::size_t err_pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

JsonValue parse_json(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace jmb::obs
