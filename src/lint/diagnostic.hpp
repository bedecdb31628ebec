// Diagnostics for the static-analysis (lint) subsystem.
//
// Every finding the linter can produce carries a STABLE code (e.g.
// "RTLB-E101") drawn from the registry below; codes are never renumbered or
// reused, so downstream tooling can match on them. docs/LINT.md documents
// every code with fix-it guidance and is kept in sync with this table (the
// tests cross-check that every registered code is exercised at least once).
//
// Code ranges:
//   RTLB-E000          input could not be parsed into a model at all
//   RTLB-E0xx          structural violations (subsume Application::validate)
//   RTLB-E1xx/W1xx     temporal feasibility (EST/LCT-derived)
//   RTLB-E2xx/W2xx     platform coverage (shared and dedicated models)
//   RTLB-E3xx/W3xx     numeric safety near kTimeMax
//   RTLB-W4xx/N4xx     hygiene (advice; never blocks analysis)
//
// A Diagnostic's code, hint and default message are views of the static
// registry, so building a finding copies no registry text; only a message
// a pass formats is an owned string.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/types.hpp"

namespace rtlb {

enum class Severity {
  /// The instance is malformed or provably hopeless; analysis is refused.
  kError,
  /// Suspicious but analyzable; refused only under --werror.
  kWarning,
  /// Advice; never affects the gate.
  kNote,
};

/// "error", "warning", or "note".
const char* severity_name(Severity s);

/// One machine-applicable edit anchored to a SourceMap line. The rtlb format
/// is line-oriented (one directive per line), so every repair is a whole-line
/// replacement or deletion; src/lint/fixit.hpp applies batches of these
/// atomically with per-line conflict detection.
struct FixEdit {
  enum class Kind { kReplaceLine, kDeleteLine };
  int line = 0;      // 1-based source line; passes never emit line-0 edits
  Kind kind = Kind::kReplaceLine;
  std::string text;  // replacement directive, no trailing newline

  bool operator==(const FixEdit&) const = default;
};

/// A finding's message: the registry summary by reference, or text a pass
/// formatted, owned. It compares and renders by text, so which of the two a
/// finding holds never shows.
class DiagMessage {
 public:
  DiagMessage() = default;
  DiagMessage(std::string text) : owned_(std::move(text)) {}
  /// `text` must be static (registry storage): it is not copied.
  static DiagMessage borrowed(const char* text) {
    DiagMessage m;
    m.borrowed_ = text;
    return m;
  }

  std::string_view view() const { return borrowed_ ? std::string_view(borrowed_) : owned_; }
  operator std::string_view() const { return view(); }
  bool operator==(const DiagMessage& other) const { return view() == other.view(); }
  bool operator==(std::string_view other) const { return view() == other; }

 private:
  const char* borrowed_ = nullptr;
  std::string owned_;
};

/// One finding. `subject` names the offending entity ("task 'alert' (#2)",
/// "edge T1 -> T2", "resource 'camera'"); `message` describes the violation
/// without repeating the subject; `hint` is optional fix-it guidance.
/// `code` and `hint` view static text: the registry entry, or a literal.
struct Diagnostic {
  std::string_view code;   // stable registry code, e.g. "RTLB-E101"
  Severity severity = Severity::kError;
  std::string subject;     // may be empty (whole-instance findings)
  DiagMessage message;
  std::string_view hint;   // may be empty
  int line = 0;            // 1-based source line when the model came from a
                           // file (SourceMap); 0 = unknown/programmatic
  TaskId task = kInvalidTask;
  ResourceId resource = kInvalidResource;
  /// Machine-applicable repair (empty for advice-only findings, and always
  /// empty when the model was built programmatically -- no SourceMap lines
  /// to anchor an edit to).
  std::vector<FixEdit> fixes;

  bool operator==(const Diagnostic&) const = default;
};

/// Registry entry: the default severity and the one-line summary used by the
/// documentation and the --explain output of rtlb_lint.
struct DiagInfo {
  const char* code;
  Severity severity;
  const char* summary;
  const char* fixit;
};

/// All registered codes, in code order.
std::span<const DiagInfo> all_diag_info();

/// Lookup; nullptr for an unknown code.
const DiagInfo* diag_info(std::string_view code);

/// A registry's (code, entry) pairs sorted by code, for find_code().
/// Registries list codes in documentation order, which is not lexical
/// (RTLB-E310 follows RTLB-N403), so each builds this index once, at
/// compile time.
using CodeIndexEntry = std::pair<std::string_view, const DiagInfo*>;
template <std::size_t N>
constexpr std::array<CodeIndexEntry, N> index_by_code(const std::array<DiagInfo, N>& registry) {
  std::array<CodeIndexEntry, N> index{};
  for (std::size_t i = 0; i < N; ++i) index[i] = {registry[i].code, &registry[i]};
  std::ranges::sort(index);
  return index;
}

/// Binary search of an index_by_code(); nullptr for an unknown code.
const DiagInfo* find_code(std::span<const CodeIndexEntry> index, std::string_view code);

/// Render one diagnostic as a compiler-style line (plus an indented hint
/// line when present):
///   file.rtlb:12: error: task 'alert' (#2): <message> [RTLB-E101]
/// `filename` may be empty (then the "file:line:" prefix is dropped unless a
/// line is known, in which case "line 12:" is used).
std::string format_diagnostic(const Diagnostic& d, const std::string& filename = "");

}  // namespace rtlb
