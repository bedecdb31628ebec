#include "src/audit/audit.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/audit/registry.hpp"
#include "src/audit/rules.hpp"
#include "src/audit/source.hpp"
#include "src/common/types.hpp"

namespace rtlb::audit {

namespace fs = std::filesystem;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("audit: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool is_source_name(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

/// Audit one file: scan, run every rule, filter honoured suppressions.
void audit_file(const Manifest& manifest, const std::string& root,
                const std::string& rel, Result& out) {
  const std::string text = read_file((fs::path(root) / rel).string());
  const SourceFile src = scan_source(rel, text);
  ++out.files_scanned;

  LintResult batch;
  DiagnosticSink sink(batch, LintOptions{}, audit_info);
  for (const Rule& rule : manifest.rules) run_rule(rule, src, sink);

  for (Diagnostic& d : batch.diagnostics) {
    if (src.suppressed(d.code, d.line)) {
      ++out.suppressed;
      continue;
    }
    out.findings.push_back({rel, std::move(d), /*baselined=*/false});
  }
}

}  // namespace

int Result::new_findings() const {
  int n = 0;
  for (const Finding& f : findings) n += f.baselined ? 0 : 1;
  return n;
}

int Result::baselined_count() const {
  return static_cast<int>(findings.size()) - new_findings();
}

std::vector<std::string> list_sources(const Manifest& manifest, const std::string& root) {
  std::vector<std::string> files;
  for (const std::string& dir : manifest.roots) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;  // an absent root scans as empty, not as a throw
    for (fs::recursive_directory_iterator it(base, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (!it->is_regular_file() || !is_source_name(it->path())) continue;
      files.push_back(fs::path(it->path()).lexically_relative(root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

Result run_audit(const Manifest& manifest, const std::string& root,
                 const std::vector<std::string>& files) {
  Result out;
  const std::vector<std::string> targets = files.empty() ? list_sources(manifest, root) : files;
  for (const std::string& rel : targets) audit_file(manifest, root, rel, out);
  std::stable_sort(out.findings.begin(), out.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.diag.line != b.diag.line) return a.diag.line < b.diag.line;
                     return a.diag.code < b.diag.code;
                   });
  return out;
}

std::string baseline_key(const Finding& f) {
  return f.file + "\t" + std::string(f.diag.code) + "\t" + f.diag.subject;
}

void apply_baseline(Result& result, const std::set<std::string>& baseline) {
  for (Finding& f : result.findings) {
    f.baselined = baseline.count(baseline_key(f)) > 0;
  }
}

std::string format_audit_text(const Result& result, bool quiet_hints) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    Diagnostic d = f.diag;
    if (quiet_hints) d.hint = {};
    if (f.baselined) {
      d.message = std::string(d.message) + " (baselined)";
      d.hint = {};
    }
    out << format_diagnostic(d, f.file) << "\n";
  }
  out << result.files_scanned << " file(s), " << result.new_findings()
      << " finding(s)";
  if (result.baselined_count() > 0) out << ", " << result.baselined_count() << " baselined";
  if (result.suppressed > 0) out << ", " << result.suppressed << " suppressed";
  out << "\n";
  return out.str();
}

Json audit_json(const Result& result) {
  int errors = 0;
  int warnings = 0;
  int notes = 0;
  Json findings = Json::array();
  for (const Finding& f : result.findings) {
    if (!f.baselined) {
      switch (f.diag.severity) {
        case Severity::kError: ++errors; break;
        case Severity::kWarning: ++warnings; break;
        case Severity::kNote: ++notes; break;
      }
    }
    Json entry = Json::object();
    entry.set("file", f.file)
        .set("line", f.diag.line)
        .set("code", std::string(f.diag.code))
        .set("severity", severity_name(f.diag.severity))
        .set("subject", f.diag.subject)
        .set("message", std::string(f.diag.message))
        .set("hint", std::string(f.diag.hint))
        .set("baselined", f.baselined);
    findings.push(std::move(entry));
  }
  Json root = Json::object();
  root.set("files_scanned", static_cast<std::int64_t>(result.files_scanned))
      .set("errors", static_cast<std::int64_t>(errors))
      .set("warnings", static_cast<std::int64_t>(warnings))
      .set("notes", static_cast<std::int64_t>(notes))
      .set("suppressed", static_cast<std::int64_t>(result.suppressed))
      .set("baselined", static_cast<std::int64_t>(result.baselined_count()))
      .set("findings", std::move(findings));
  return root;
}

}  // namespace rtlb::audit
