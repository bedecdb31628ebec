// JSON text: one streaming writer and a document model with a hardened
// parser.
//
// JsonWriter is the ONE serializer: it appends compact or pretty-printed
// text to a single std::string, and it alone escapes strings and formats
// numbers. The large documents (analysis reports, certificates, lint
// findings, traces, fleet reports) are written through it straight from
// their data and handed out as a JsonRender, whose dump(indent) runs the
// writer. Json is the document model for READING (certificates, scenario
// specs, shard reports) and for the small documents callers assemble
// (bench records, scenario specs); Json::dump renders through the same
// writer, so both paths emit the same bytes. Problem instances travel in
// the text format of src/model/io.hpp.
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
#include <functional>
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

class Json;
class JsonRender;

/// Streaming JSON serializer over one std::string. `indent` 0 writes compact
/// text; `indent` > 0 puts each member and element on its own line, indented
/// by `indent` spaces per level, with ": " after keys -- exactly the bytes
/// Json::dump(indent) has always produced.
///
/// Calls must form one well-nested value: inside an object, key() precedes
/// every value; separators and line breaks are the writer's job.
class JsonWriter {
 public:
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Object member name; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::nullptr_t);
  JsonWriter& value(bool b);
  JsonWriter& value(std::int64_t n);
  JsonWriter& value(int n) { return value(static_cast<std::int64_t>(n)); }
  /// `%.10g`; NaN and infinities are written as null (JSON has neither).
  JsonWriter& value(double d);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  /// A document-model subtree.
  JsonWriter& value(const Json& doc);
  /// Another producer's document, written in place.
  JsonWriter& value(const JsonRender& doc);

  /// key(name) then value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// The text written so far (the whole document once it is closed).
  std::string take() { return std::move(out_); }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// Separator and line break owed before the next member or element.
  void next_item();
  void newline(int level);
  /// `s` as a JSON string literal: the one place strings are escaped.
  void quote(std::string_view s);

  std::string out_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;      ///< no item written yet in the innermost container
  bool after_key_ = false;  ///< the next value belongs to a written key
};

/// A document rendered on demand: producers of large documents return one
/// instead of a Json tree, and dump() writes their data straight to text.
/// The handle refers to the producer's arguments, so render it while they
/// live -- typically in the same expression: `report_json(app, r).dump(2)`.
class JsonRender {
 public:
  explicit JsonRender(std::function<void(JsonWriter&)> write) : write_(std::move(write)) {}

  /// The document's text; `indent` > 0 pretty-prints, as Json::dump.
  std::string dump(int indent = 0) const;

 private:
  friend class JsonWriter;
  std::function<void(JsonWriter&)> write_;
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

  /// Serialize through JsonWriter; `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Parse a complete JSON document. Throws JsonParseError on malformed
  /// input, trailing garbage, or nesting deeper than `options.max_depth`.
  static Json parse(std::string_view text, const JsonParseOptions& options = {});

 private:
  friend class JsonWriter;
  using Members = std::vector<std::pair<std::string, Json>>;
  using Elements = std::vector<Json>;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Members, Elements>
      value_;
};

}  // namespace rtlb
