#include "src/lint/linter.hpp"

#include <optional>
#include <sstream>

#include "src/core/est_lct.hpp"
#include "src/lint/absint.hpp"
#include "src/lint/dataflow.hpp"
#include "src/lint/passes.hpp"

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
  const DiagInfo* info = nullptr;
  for (const DiagInfo& entry : registry_) {
    if (std::string_view(entry.code) == code) {
      info = &entry;
      break;
    }
  }
  RTLB_CHECK(info != nullptr, "unregistered diagnostic code");
  Diagnostic d;
  d.code = info->code;
  d.severity = info->severity;
  d.subject = std::move(subject);
  d.message = message.empty() ? info->summary : std::move(message);
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
                       std::optional<TaskWindows>* windows_out) const {
  LintResult result;
  DiagnosticSink sink(result, options);
  LintContext ctx{app, platform, lines, nullptr, nullptr};

  // Structural passes always run; model-interpreting passes only on a
  // structurally clean instance (EST/LCT needs valid ids and acyclicity).
  for (const LintPass& pass : passes_) {
    if (!pass.needs_valid_model) pass.run(ctx, sink);
  }
  if (result.has_errors()) return result;

  // The interpretation is the diagnostic (E310's witness chain, W311); the
  // windows come from the engine, which guards its own range.
  const AbsIntResult absint = abstract_interpret(app, platform);
  ctx.absint = &absint;
  std::optional<TaskWindows> windows;
  try {
    windows = compute_windows(app, platform);
    ctx.windows = &*windows;
  } catch (const ModelError&) {
    // Refused (RTLB-E310): the model passes run without windows.
  }
  for (const LintPass& pass : passes_) {
    if (!pass.needs_valid_model) continue;
    if (sink.capped()) break;
    pass.run(ctx, sink);
  }
  if (windows_out != nullptr && windows) *windows_out = std::move(windows);
  return result;
}

const Linter& default_linter() {
  static const Linter linter;
  return linter;
}

LintResult lint(const Application& app, const DedicatedPlatform* platform,
                const SourceMap* lines, const LintOptions& options,
                std::optional<TaskWindows>* windows_out) {
  return default_linter().run(app, platform, lines, options, windows_out);
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
    out << d.message << " [" << d.code << "]";
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

Json lint_json(const LintResult& result) {
  Json root = Json::object();
  root.set("errors", result.errors)
      .set("warnings", result.warnings)
      .set("notes", result.notes)
      .set("truncated", result.truncated);
  Json diags = Json::array();
  for (const Diagnostic& d : result.diagnostics) {
    Json entry = Json::object();
    entry.set("code", d.code)
        .set("severity", severity_name(d.severity))
        .set("subject", d.subject)
        .set("message", d.message)
        .set("hint", d.hint)
        .set("line", d.line);
    if (!d.fixes.empty()) {
      Json fixes = Json::array();
      for (const FixEdit& e : d.fixes) {
        Json fix = Json::object();
        fix.set("line", e.line)
            .set("kind", e.kind == FixEdit::Kind::kDeleteLine ? "delete" : "replace")
            .set("text", e.text);
        fixes.push(std::move(fix));
      }
      entry.set("fixes", std::move(fixes));
    }
    diags.push(std::move(entry));
  }
  root.set("diagnostics", std::move(diags));
  return root;
}

}  // namespace rtlb
