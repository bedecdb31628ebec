// A lightweight C++ source scanner for the audit subsystem: comments and
// string/character literals are stripped into a flat token stream with line
// numbers, quoted project includes are extracted, and `audit-ok`
// suppression comments are recorded.
//
// This is deliberately NOT a compiler front end (no preprocessing, no name
// lookup, no types beyond what a file declares textually). The audit rules
// are pattern matchers over this stream, tuned so that every violation they
// CAN see is reported at its exact file:line and the patterns they cannot
// see through (writes hidden behind function calls, types declared in other
// headers) are documented limitations in docs/AUDIT.md rather than silent
// false positives.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rtlb::audit {

struct Token {
  enum class Kind {
    kIdent,    // identifiers and keywords
    kNumber,   // numeric literals (value not interpreted)
    kPunct,    // operators/punctuation, maximal-munch ("+=", "::", ...)
    kString,   // string literal (text excludes quotes; escapes kept raw)
    kChar,     // character literal
  };
  Kind kind;
  std::string text;
  int line = 0;  // 1-based
};

/// One `#include "src/..."` directive. Only quoted project includes are
/// recorded -- system headers carry no layering information.
struct IncludeEdge {
  std::string target;         // e.g. "src/core/analysis.hpp"
  std::string target_module;  // e.g. "core"
  int line = 0;
};

/// One `audit-ok: RTLB-Axxx <reason>` comment. A suppression with an EMPTY
/// reason is recorded but never honoured (the driver reports the finding
/// anyway): justifications are mandatory, same as audit.baseline comments.
struct Suppression {
  std::string code;
  std::string reason;
  bool alone_on_line = false;  // comment is the whole line -> covers line+1
};

struct SourceFile {
  std::string path;    // root-relative, '/'-separated (e.g. "src/core/x.cpp")
  std::string module;  // second path component under src/ ("" otherwise)
  std::vector<Token> tokens;
  std::vector<IncludeEdge> includes;
  std::multimap<int, Suppression> suppressions;  // keyed by comment line

  /// True when a finding for `code` at `line` is covered by an honoured
  /// suppression (same line, or a whole-line comment on the line above).
  bool suppressed(std::string_view code, int line) const;
};

/// Tokenize `text` (the contents of `path`). Never throws on malformed
/// input: an unterminated literal or comment simply ends the stream, which
/// at worst loses findings in dead text, never invents them.
SourceFile scan_source(std::string path, const std::string& text);

/// "src/core/x.cpp" -> "core"; "" when the path is not of that shape.
std::string module_of(const std::string& path);

}  // namespace rtlb::audit
