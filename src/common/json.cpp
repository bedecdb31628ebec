#include "src/common/json.hpp"

#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

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

void JsonWriter::newline(int level) {
  if (indent_ > 0) out_.append(1, '\n').append(static_cast<std::size_t>(indent_ * level), ' ');
}

void JsonWriter::next_item() {
  if (after_key_) {  // the value of a key: key() already separated it
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
  if (!first_) out_ += ',';
  first_ = false;
  newline(depth_);
}

JsonWriter& JsonWriter::open(char bracket) {
  next_item();
  out_ += bracket;
  ++depth_;
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  RTLB_CHECK(depth_ > 0 && !after_key_, "JsonWriter: unbalanced close");
  --depth_;
  if (!first_) newline(depth_);
  out_ += bracket;
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  RTLB_CHECK(depth_ > 0 && !after_key_, "JsonWriter: key outside an object");
  next_item();
  quote(name);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::nullptr_t) {
  next_item();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  next_item();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t n) {
  next_item();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return value(nullptr);  // JSON has no Inf/NaN
  next_item();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", d);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  next_item();
  quote(s);
  return *this;
}

namespace {

/// The bytes a JSON string literal cannot hold raw: '"', '\\' and the
/// control characters.
constexpr auto kEscaped = [] {
  std::array<bool, 256> escaped{};
  for (int c = 0; c < 0x20; ++c) escaped[c] = true;
  escaped['"'] = escaped['\\'] = true;
  return escaped;
}();

}  // namespace

void JsonWriter::quote(std::string_view s) {
  out_ += '"';
  const char* run = s.data();  // start of the pending run of bytes that need no escape
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (!kEscaped[c]) continue;
    out_.append(run, static_cast<std::size_t>(p - run));
    run = p + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:  // the other control characters, as \u00XX
        out_ += c < 0x10 ? "\\u000" : "\\u001";
        out_ += "0123456789abcdef"[c & 0xf];
    }
  }
  out_.append(run, static_cast<std::size_t>(end - run));
  out_ += '"';
}

JsonWriter& JsonWriter::value(const Json& doc) {
  std::visit(
      [this](const auto& v) {
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<V, Json::Members>) {
          begin_object();
          for (const auto& [k, member] : v) key(k).value(member);
          end_object();
        } else if constexpr (std::is_same_v<V, Json::Elements>) {
          begin_array();
          for (const Json& element : v) value(element);
          end_array();
        } else {
          value(v);
        }
      },
      doc.value_);
  return *this;
}

JsonWriter& JsonWriter::value(const JsonRender& doc) {
  doc.write_(*this);
  return *this;
}

std::string JsonRender::dump(int indent) const {
  JsonWriter w(indent);
  write_(w);
  return w.take();
}

std::string Json::dump(int indent) const {
  return JsonWriter(indent).value(*this).take();
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
