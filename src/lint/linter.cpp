#include "src/lint/linter.hpp"

#include <optional>
#include <sstream>

#include "src/core/est_lct.hpp"
#include "src/lint/absint.hpp"
#include "src/lint/dataflow.hpp"
#include "src/lint/passes.hpp"
#include "src/obs/trace.hpp"

namespace rtlb {

bool DiagnosticSink::emit(Diagnostic d) {
  if (capped_) {
    result_->truncated = true;
    return false;
  }
  if (options_.werror && d.severity == Severity::kWarning) d.severity = Severity::kError;
  switch (d.severity) {
    case Severity::kError: ++result_->errors; break;
    case Severity::kWarning: ++result_->warnings; break;
    case Severity::kNote: ++result_->notes; break;
  }
  result_->diagnostics.push_back(std::move(d));
  if (options_.max_errors > 0 && result_->errors >= options_.max_errors) capped_ = true;
  return true;
}

Diagnostic DiagnosticSink::make(const char* code, std::string subject,
                                std::string message) const {
  const DiagInfo* info = lookup_(code);
  RTLB_CHECK(info != nullptr, "unregistered diagnostic code");
  Diagnostic d;
  d.code = info->code;
  d.severity = info->severity;
  d.subject = std::move(subject);
  d.message = message.empty() ? DiagMessage::borrowed(info->summary)
                              : DiagMessage(std::move(message));
  d.hint = info->fixit;
  return d;
}

Linter::Linter() {
  passes_.push_back({"structural", /*needs_valid_model=*/false, structural_lint_pass});
  passes_.push_back({"temporal", true, temporal_lint_pass});
  passes_.push_back({"platform-coverage", true, platform_lint_pass});
  passes_.push_back({"numeric-safety", true, numeric_lint_pass});
  passes_.push_back({"absint", true, absint_lint_pass});
  passes_.push_back({"dataflow", true, dataflow_lint_pass});
  passes_.push_back({"hygiene", true, hygiene_lint_pass});
}

LintResult Linter::run(const Application& app, const DedicatedPlatform* platform,
                       const SourceMap* lines, const LintOptions& options,
                       std::optional<TaskWindows>* windows_out,
                       std::vector<ResourcePartition>* partitions_out) const {
  LintResult result;
  DiagnosticSink sink(result, options);
  Trace* trace = options.trace;
  // One topological order per run: the structural pass's cycle check, the
  // interpretation, the windows and the dataflow reachability rows all walk
  // it. Nullopt on a cycle, which the structural pass reports (E007).
  const std::optional<std::vector<TaskId>> order = app.dag().topological_order();
  LintContext ctx{app, platform, lines};
  ctx.order = order ? &*order : nullptr;
  const auto run_pass = [&](const LintPass& pass) {
    ScopedSpan span(trace, trace ? "lint.pass." + pass.name : std::string());
    pass.run(ctx, sink);
  };

  // Structural passes always run; model-interpreting passes only on a
  // structurally clean instance (EST/LCT needs valid ids and acyclicity).
  for (const LintPass& pass : passes_) {
    if (!pass.needs_valid_model) run_pass(pass);
  }
  if (result.has_errors()) return result;
  RTLB_CHECK(order.has_value(), "a cycle passed the structural lint");

  // The interpretation is the diagnostic (E310's witness chain, W311); the
  // windows come from the engine, which guards its own range.
  const AbsIntResult absint = [&] {
    ScopedSpan span(trace, "lint.context.absint");
    return abstract_interpret(app, platform, *order);
  }();
  ctx.absint = &absint;
  std::optional<TaskWindows> windows;
  std::vector<ResourcePartition> partitions;
  try {
    ScopedSpan span(trace, "lint.context.windows");
    windows = compute_windows(app, platform, *order);
    ctx.windows = &*windows;
  } catch (const ModelError&) {
    // Refused (RTLB-E310): the model passes run without windows.
  }
  if (windows) {
    partitions = partition_all(app, *windows);
    ctx.partitions = &partitions;
  }
  for (const LintPass& pass : passes_) {
    if (!pass.needs_valid_model) continue;
    if (sink.capped()) break;
    run_pass(pass);
  }
  if (windows && partitions_out != nullptr) *partitions_out = std::move(partitions);
  if (windows && windows_out != nullptr) *windows_out = std::move(windows);
  return result;
}

const Linter& default_linter() {
  static const Linter linter;
  return linter;
}

LintResult lint(const Application& app, const DedicatedPlatform* platform,
                const SourceMap* lines, const LintOptions& options,
                std::optional<TaskWindows>* windows_out,
                std::vector<ResourcePartition>* partitions_out) {
  return default_linter().run(app, platform, lines, options, windows_out, partitions_out);
}

namespace {

std::string gate_summary(const LintResult& result) {
  std::ostringstream out;
  out << "pre-flight lint refused the instance: " << result.errors << " error(s), "
      << result.warnings << " warning(s)";
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::kError) continue;
    out << "; first: ";
    if (!d.subject.empty()) out << d.subject << ": ";
    out << d.message.view() << " [" << d.code << "]";
    break;
  }
  return out.str();
}

}  // namespace

LintGateError::LintGateError(LintResult result)
    : ModelError(gate_summary(result)), result_(std::move(result)) {}

std::string format_lint_text(const LintResult& result, const std::string& filename) {
  std::ostringstream out;
  for (const Diagnostic& d : result.diagnostics) {
    out << format_diagnostic(d, filename) << "\n";
  }
  out << result.errors << " error(s), " << result.warnings << " warning(s), "
      << result.notes << " note(s)";
  if (result.truncated) out << " (truncated by --max-errors)";
  out << "\n";
  return out.str();
}

JsonRender lint_json(const LintResult& result) {
  return JsonRender([&result](JsonWriter& w) {
    w.begin_object()
        .field("errors", result.errors)
        .field("warnings", result.warnings)
        .field("notes", result.notes)
        .field("truncated", result.truncated)
        .key("diagnostics")
        .begin_array();
    for (const Diagnostic& d : result.diagnostics) {
      w.begin_object()
          .field("code", d.code)
          .field("severity", severity_name(d.severity))
          .field("subject", d.subject)
          .field("message", d.message.view())
          .field("hint", d.hint)
          .field("line", d.line);
      if (!d.fixes.empty()) {
        w.key("fixes").begin_array();
        for (const FixEdit& e : d.fixes) {
          w.begin_object()
              .field("line", e.line)
              .field("kind", e.kind == FixEdit::Kind::kDeleteLine ? "delete" : "replace")
              .field("text", e.text)
              .end_object();
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_array().end_object();
  });
}

}  // namespace rtlb
