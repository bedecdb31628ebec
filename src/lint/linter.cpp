#include "src/lint/linter.hpp"

#include <optional>
#include <sstream>

#include "src/core/mergeable.hpp"
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

void Linter::register_pass(LintPass pass) { passes_.push_back(std::move(pass)); }

LintResult Linter::run(const Application& app, const DedicatedPlatform* platform,
                       const SourceMap* lines, const LintOptions& options,
                       std::optional<TaskWindows>* windows_out) const {
  LintPassSlices scratch;  // empty dirty mask = recompute everything
  return run_with_reuse(app, platform, lines, scratch, {}, nullptr, nullptr, options,
                        windows_out);
}

LintResult Linter::run_with_reuse(const Application& app, const DedicatedPlatform* platform,
                                  const SourceMap* lines, LintPassSlices& slices,
                                  const std::vector<bool>& dirty,
                                  std::uint64_t* pass_hits, std::uint64_t* pass_misses,
                                  const LintOptions& options,
                                  std::optional<TaskWindows>* windows_out) const {
  // Slices recorded under non-default options are not reusable (werror
  // rewrites severities in place, max_errors truncates across passes), so
  // such runs neither serve nor commit slices.
  const bool reusable = options.max_errors == 0 && !options.werror;
  const bool have_mask = dirty.size() == passes_.size();
  auto pass_clean = [&](std::size_t k) {
    return reusable && have_mask && slices.valid &&
           slices.by_pass.size() == passes_.size() && !dirty[k];
  };

  LintResult result;
  DiagnosticSink sink(result, options);
  LintContext ctx{app, platform, lines, nullptr, nullptr};
  std::vector<std::vector<Diagnostic>> fresh(passes_.size());

  auto run_pass = [&](std::size_t k) {
    if (pass_clean(k)) {
      for (const Diagnostic& d : slices.by_pass[k]) sink.emit(d);
      fresh[k] = slices.by_pass[k];
      if (pass_hits != nullptr) ++*pass_hits;
      return;
    }
    const std::size_t start = result.diagnostics.size();
    passes_[k].run(ctx, sink);
    fresh[k].assign(result.diagnostics.begin() +
                        static_cast<std::ptrdiff_t>(start),
                    result.diagnostics.end());
    if (pass_misses != nullptr) ++*pass_misses;
  };

  // Structural passes always run; model-interpreting passes only on a
  // structurally clean instance (EST/LCT needs valid ids and acyclicity).
  for (std::size_t k = 0; k < passes_.size(); ++k) {
    if (!passes_[k].needs_valid_model) run_pass(k);
  }

  bool skipped_model_passes = false;
  if (result.has_errors()) {
    // Model passes are skipped wholesale (counted as misses -- nothing was
    // served). This run learned NOTHING about them, so their previous
    // slices -- recorded the last time they actually ran -- must stay
    // committed untouched: the caller's dirty flags keep governing whether
    // they may be served later, and a pass whose inputs changed re-runs
    // either way. Overwriting them with this run's empty vectors was a real
    // fleet-caught bug: a session query refused by the structural gate
    // wiped the platform-coverage slice, and the next (clean) query served
    // the empty slice -- its warnings silently vanished from the report.
    skipped_model_passes = true;
    for (std::size_t k = 0; k < passes_.size(); ++k) {
      if (!passes_[k].needs_valid_model) continue;
      if (pass_misses != nullptr) ++*pass_misses;
      if (reusable && slices.valid && slices.by_pass.size() == passes_.size()) {
        fresh[k] = slices.by_pass[k];
      }
    }
  } else {
    bool recompute_any = false;
    for (std::size_t k = 0; k < passes_.size(); ++k) {
      recompute_any |= passes_[k].needs_valid_model && !pass_clean(k);
    }
    // The interpretation gates the window computation: windows are only
    // materialized when every intermediate is provably within the safe
    // range, so the linter itself can never trip the overflow it reports.
    std::optional<AbsIntResult> absint;
    TaskWindows windows;
    if (recompute_any) {
      absint = abstract_interpret(app, platform);
      ctx.absint = &*absint;
      if (absint->windows_safe()) {
        if (platform != nullptr) {
          DedicatedMergeOracle oracle(*platform);
          windows = compute_windows(app, oracle);
        } else {
          SharedMergeOracle oracle;
          windows = compute_windows(app, oracle);
        }
        ctx.windows = &windows;
      }
    }
    for (std::size_t k = 0; k < passes_.size(); ++k) {
      if (!passes_[k].needs_valid_model) continue;
      if (sink.capped()) break;
      run_pass(k);
    }
    if (windows_out != nullptr && ctx.windows != nullptr) *windows_out = std::move(windows);
  }

  if (reusable) {
    // With no prior slices to preserve, a skipped-model-pass run must not
    // commit: marking its empty vectors valid is exactly the wiped-slice
    // bug above.
    const bool had_prior = slices.valid && slices.by_pass.size() == passes_.size();
    if (skipped_model_passes && !had_prior) {
      slices.valid = false;
    } else {
      slices.by_pass = std::move(fresh);
      slices.valid = true;
    }
  }
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
