// Minimal JSON document model: a write-side builder and a hardened parser.
//
// Just enough for machine-readable analysis reports and the certificate
// files of src/verify: objects, arrays, strings (escaped), integers,
// doubles, booleans. Problem instances still travel in the text format of
// src/model/io.hpp; JSON input exists for certificates only.
//
// set()/push() have `&&` overloads, so a chain on a temporary moves into its
// parent: `arr.push(Json::object().set("k", 1))` never copies a subtree.
//
// The parser is meant for UNTRUSTED input (rtlb_check reads certificate
// files from disk), so it is total: every malformed document raises
// JsonParseError with an offset, integers that do not fit int64 fall back
// to double, and container nesting is capped (JsonParseOptions::max_depth,
// default 64) so a "[[[[..." bomb fails with a clear error instead of
// exhausting the stack.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rtlb {

/// Malformed JSON input; `what()` carries a byte offset and a description.
class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what) : std::runtime_error(what) {}
};

struct JsonParseOptions {
  /// Maximum container (object/array) nesting the parser will follow. The
  /// recursive-descent parser uses one stack frame per level, so the cap is
  /// what makes deeply nested hostile input fail cleanly.
  std::size_t max_depth = 64;
};

class Json {
 public:
  Json() : value_(nullptr) {}  // null
  Json(bool b) : value_(b) {}
  Json(std::int64_t n) : value_(n) {}
  Json(int n) : value_(static_cast<std::int64_t>(n)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}

  static Json object() {
    Json j;
    j.value_ = Members{};
    return j;
  }
  static Json array() {
    Json j;
    j.value_ = Elements{};
    return j;
  }

  /// Object field; keeps insertion order. Only valid on objects.
  Json& set(std::string key, Json value) &;
  Json&& set(std::string k, Json v) && { return std::move(set(std::move(k), std::move(v))); }

  /// Array element. Only valid on arrays.
  Json& push(Json value) &;
  Json&& push(Json value) && { return std::move(push(std::move(value))); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  /// Any JSON number: integer- or double-valued.
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_object() const { return std::holds_alternative<Members>(value_); }
  bool is_array() const { return std::holds_alternative<Elements>(value_); }

  // Read accessors. Each RTLB_CHECKs the kind; callers validating untrusted
  // documents must test is_*() first (the certificate parser does).
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Numeric value as double; accepts both int64 and double payloads.
  double as_double() const;
  const std::string& as_string() const;

  /// Object lookup; nullptr when absent (or *this is not an object).
  const Json* find(std::string_view key) const;

  /// Container size: number of members (object) or elements (array).
  std::size_t size() const;
  /// Array element access. Only valid on arrays, i < size().
  const Json& at(std::size_t i) const;
  /// Object member access by position (insertion order). Only valid on objects.
  const std::pair<std::string, Json>& member(std::size_t i) const;

  /// Serialize; `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Parse a complete JSON document. Throws JsonParseError on malformed
  /// input, trailing garbage, or nesting deeper than `options.max_depth`.
  static Json parse(std::string_view text, const JsonParseOptions& options = {});

 private:
  using Members = std::vector<std::pair<std::string, Json>>;
  using Elements = std::vector<Json>;
  void dump_to(std::string& out, int indent, int depth) const;
  static void escape_to(std::string& out, std::string_view s);

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Members, Elements>
      value_;
};

}  // namespace rtlb
