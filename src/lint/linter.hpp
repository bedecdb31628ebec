// The lint driver: an ordered registry of read-only passes over an
// Application (plus, optionally, a DedicatedPlatform and the SourceMap of the
// file it was parsed from). Unlike Application::validate() -- which throws on
// the FIRST structural violation -- the linter batches every finding into a
// LintResult so users can fix a whole instance in one round trip, and so the
// analysis pipeline can refuse hopeless instances before spending bound-scan
// time on them (AnalysisOptions::lint_level).
//
// Passes never mutate the model. Passes that interpret the model (EST/LCT
// windows, partitions, platform coverage) only run when the structural pass
// found no errors; a structurally broken instance reports only its
// structural findings.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/core/est_lct.hpp"
#include "src/core/partition.hpp"
#include "src/lint/diagnostic.hpp"
#include "src/model/application.hpp"
#include "src/model/io.hpp"
#include "src/model/platform.hpp"

namespace rtlb {

struct AbsIntResult;  // src/lint/absint.hpp
class Trace;          // src/obs/trace.hpp

struct LintOptions {
  /// Stop recording further findings once this many ERRORS were emitted
  /// (warnings/notes do not count). 0 = unlimited. The result is marked
  /// truncated so "no further findings" is distinguishable from "clean".
  int max_errors = 0;

  /// Promote warnings to errors (the classic -Werror). Notes are unaffected.
  bool werror = false;

  /// Where Linter::run records its spans -- "lint.context.absint",
  /// "lint.context.windows" and one "lint.pass.<name>" per pass run --
  /// nested in whatever span the caller has open. Null (the default)
  /// records nothing, at one branch per span.
  Trace* trace = nullptr;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // in pass order, stable
  int errors = 0;
  int warnings = 0;
  int notes = 0;
  bool truncated = false;  // max_errors cap was hit

  bool clean() const { return diagnostics.empty(); }
  bool has_errors() const { return errors > 0; }

  bool operator==(const LintResult&) const = default;
};

/// Everything a pass may look at. `lines` and `platform` may be null;
/// `absint` is filled by the driver once the structural pass found no errors
/// (the interval interpretation needs an acyclic model with valid ids), and
/// `windows` then too unless compute_windows() refused them because an
/// endpoint left the safe Time range (RTLB-E310). Linter::run sets
/// `partitions` (partition_all over `windows`) whenever it sets `windows`,
/// and `order` (Dag::topological_order()) before the first pass whenever
/// the DAG is acyclic; a caller running the passes one at a time may leave
/// either null, and the passes then compute what they need themselves.
struct LintContext {
  const Application& app;
  const DedicatedPlatform* platform = nullptr;
  const SourceMap* lines = nullptr;
  const TaskWindows* windows = nullptr;
  const AbsIntResult* absint = nullptr;
  const std::vector<ResourcePartition>* partitions = nullptr;
  const std::vector<TaskId>* order = nullptr;

  /// Line of task i's declaration; 0 when unknown.
  int task_line(TaskId i) const { return lines ? lines->task_line(i) : 0; }
  int edge_line(TaskId from, TaskId to) const {
    return lines ? lines->edge_line(from, to) : 0;
  }
  int resource_line(ResourceId r) const {
    return lines ? lines->resource_line(r) : 0;
  }
  int node_line(std::size_t n) const { return lines ? lines->node_line(n) : 0; }
};

/// Collects diagnostics for one run, applying werror promotion and the
/// max_errors cap. Passes call emit(); everything else is bookkeeping.
/// `lookup` is the registry make() resolves codes in -- the lint registry
/// by default; the audit subsystem passes its own (src/audit/registry.hpp)
/// so the two code spaces stay disjoint.
class DiagnosticSink {
 public:
  using Lookup = const DiagInfo* (*)(std::string_view code);

  DiagnosticSink(LintResult& result, const LintOptions& options, Lookup lookup = diag_info)
      : result_(&result), options_(options), lookup_(lookup) {}

  /// Record `d` (severity defaulted from the registry for d.code; a pass may
  /// pre-set a different severity only by filling d.severity AFTER setting
  /// code via make()). Returns false once the error cap is reached.
  bool emit(Diagnostic d);

  /// Convenience: registry-backed constructor. The code, the hint and, when
  /// `message` is empty, the message view the registry entry's text.
  Diagnostic make(const char* code, std::string subject, std::string message = "") const;

  bool capped() const { return capped_; }

 private:
  LintResult* result_;
  LintOptions options_;
  Lookup lookup_;
  bool capped_ = false;
};

/// One registered pass.
struct LintPass {
  std::string name;
  /// True for passes that interpret the model and therefore only run on
  /// structurally clean instances.
  bool needs_valid_model = true;
  std::function<void(const LintContext&, DiagnosticSink&)> run;
};

/// The driver. Default-constructed with the standard pass order: structural,
/// temporal, platform-coverage, numeric-safety, absint, dataflow, hygiene.
class Linter {
 public:
  Linter();

  const std::vector<LintPass>& passes() const { return passes_; }

  /// The one lint driver: structural passes, then (on a structurally clean
  /// model) abstract_interpret, the EST/LCT windows, their partitions, and
  /// the model passes. The DAG's topological order is computed once, before
  /// the structural passes, and handed to the cycle check, the
  /// interpretation, the windows and the dataflow pass; nothing of it
  /// outlives the call. `windows_out` (may be null) receives those windows,
  /// so a caller need not compute them again. They use the dedicated merge
  /// oracle iff `platform` is given, and are set only when the model passes
  /// ran and compute_windows() did not refuse them (RTLB-E310, out of
  /// range). `partitions_out` (may be null) receives partition_all() of
  /// those windows, under the same condition.
  LintResult run(const Application& app, const DedicatedPlatform* platform = nullptr,
                 const SourceMap* lines = nullptr, const LintOptions& options = {},
                 std::optional<TaskWindows>* windows_out = nullptr,
                 std::vector<ResourcePartition>* partitions_out = nullptr) const;

 private:
  std::vector<LintPass> passes_;
};

/// The shared default-constructed Linter behind lint().
const Linter& default_linter();

/// One-shot convenience over default_linter(); `windows_out` and
/// `partitions_out` as in Linter::run.
LintResult lint(const Application& app, const DedicatedPlatform* platform = nullptr,
                const SourceMap* lines = nullptr, const LintOptions& options = {},
                std::optional<TaskWindows>* windows_out = nullptr,
                std::vector<ResourcePartition>* partitions_out = nullptr);

/// Thrown by analyze() when the pre-flight gate refuses an instance; carries
/// the full batch of diagnostics so callers can print them all.
class LintGateError : public ModelError {
 public:
  explicit LintGateError(LintResult result);
  const LintResult& result() const { return result_; }

 private:
  LintResult result_;
};

/// Render a whole result in compiler style, one finding per line (plus hint
/// lines), followed by a "N error(s), M warning(s), K note(s)" summary.
std::string format_lint_text(const LintResult& result, const std::string& filename = "");

/// JSON view used by both the analysis report and rtlb_lint --format=json:
/// {"errors", "warnings", "notes", "truncated", "diagnostics": [{"code",
/// "severity", "subject", "message", "hint", "line"}]}. Diagnostics carrying
/// machine-applicable repairs additionally get "fixes": [{"line", "kind",
/// "text"}].
JsonRender lint_json(const LintResult& result);

}  // namespace rtlb
