#include "src/common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/types.hpp"

namespace rtlb {

Json& Json::set(std::string key, Json value) & {
  RTLB_CHECK(is_object(), "Json::set on a non-object");
  Members& members = std::get<Members>(value_);
  for (auto& [existing_key, existing_value] : members) {
    if (existing_key == key) {  // upsert: an object has one value per key
      existing_value = std::move(value);
      return *this;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) & {
  RTLB_CHECK(is_array(), "Json::push on a non-array");
  std::get<Elements>(value_).push_back(std::move(value));
  return *this;
}

void Json::escape_to(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:  // the other control characters, as \u00XX
        out += c < 0x10 ? "\\u000" : "\\u001";
        out += "0123456789abcdef"[c & 0xf];
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {  // pretty-printing only
    if (indent > 0) out.append(1, '\n').append(static_cast<std::size_t>(indent * level), ' ');
  };

  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const std::int64_t* n = std::get_if<std::int64_t>(&value_)) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, *n).ptr);
  } else if (const double* d = std::get_if<double>(&value_)) {
    if (std::isfinite(*d)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.10g", *d);
      out += buf;
    } else {
      out += "null";  // JSON has no Inf/NaN
    }
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    escape_to(out, *s);
  } else if (const Members* m = std::get_if<Members>(&value_)) {
    out += '{';
    for (std::size_t i = 0; i < m->size(); ++i) {
      if (i > 0) out += ',';
      newline(depth + 1);
      escape_to(out, (*m)[i].first);
      out += indent > 0 ? ": " : ":";
      (*m)[i].second.dump_to(out, indent, depth + 1);
    }
    if (!m->empty()) newline(depth);
    out += '}';
  } else if (const Elements* e = std::get_if<Elements>(&value_)) {
    out += '[';
    for (std::size_t i = 0; i < e->size(); ++i) {
      if (i > 0) out += ',';
      newline(depth + 1);
      (*e)[i].dump_to(out, indent, depth + 1);
    }
    if (!e->empty()) newline(depth);
    out += ']';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool Json::as_bool() const {
  RTLB_CHECK(is_bool(), "Json::as_bool on a non-bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  RTLB_CHECK(is_int(), "Json::as_int on a non-integer");
  return std::get<std::int64_t>(value_);
}

double Json::as_double() const {
  if (const std::int64_t* n = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*n);
  }
  RTLB_CHECK(is_double(), "Json::as_double on a non-number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  RTLB_CHECK(is_string(), "Json::as_string on a non-string");
  return std::get<std::string>(value_);
}

const Json* Json::find(std::string_view key) const {
  const Members* m = std::get_if<Members>(&value_);
  if (m == nullptr) return nullptr;
  for (const auto& [k, v] : *m) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (const Members* m = std::get_if<Members>(&value_)) return m->size();
  if (const Elements* e = std::get_if<Elements>(&value_)) return e->size();
  RTLB_CHECK(false, "Json::size on a non-container");
  return 0;
}

const Json& Json::at(std::size_t i) const {
  RTLB_CHECK(is_array(), "Json::at on a non-array");
  const Elements& e = std::get<Elements>(value_);
  RTLB_CHECK(i < e.size(), "Json::at out of range");
  return e[i];
}

const std::pair<std::string, Json>& Json::member(std::size_t i) const {
  RTLB_CHECK(is_object(), "Json::member on a non-object");
  const Members& m = std::get<Members>(value_);
  RTLB_CHECK(i < m.size(), "Json::member out of range");
  return m[i];
}

namespace {

// Recursive-descent parser over a string_view. Depth is counted per
// object/array and capped so hostile "[[[[..." input fails with a
// JsonParseError before the call stack does.
class Parser {
 public:
  Parser(std::string_view text, const JsonParseOptions& options)
      : text_(text), max_depth_(options.max_depth) {}

  Json run() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError("JSON parse error at offset " + std::to_string(pos_) +
                         ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(std::size_t depth) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object(std::size_t depth) {
    if (depth >= max_depth_) {
      fail("nesting depth exceeds limit of " + std::to_string(max_depth_));
    }
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(std::size_t depth) {
    if (depth >= max_depth_) {
      fail("nesting depth exceeds limit of " + std::to_string(max_depth_));
    }
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("invalid escape character");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  void append_codepoint(std::string& out, unsigned cp) {
    // Surrogate pair: a high surrogate must be followed by "\uDC00".."\uDFFF".
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired high surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      fail("invalid value");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must stand alone
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        fail("leading zero in number");
      }
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Json(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double like most parsers do.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t max_depth_;
};

}  // namespace

Json Json::parse(std::string_view text, const JsonParseOptions& options) {
  return Parser(text, options).run();
}

}  // namespace rtlb
