// rtlb-lint: multi-pass static diagnostics for rtlb problem instances.
//
//   $ rtlb_lint examples/instances/bad/window_collapse.rtlb
//   examples/instances/bad/window_collapse.rtlb:8: error: task 'alert' (#2):
//       derived window [E=18, L=16] cannot contain C=2 (slack -4) [RTLB-E101]
//
//   $ rtlb_lint --format=json file.rtlb          # machine-readable
//   $ rtlb_lint --werror --max-errors 5 *.rtlb   # CI gate
//   $ rtlb_lint --explain RTLB-E101              # code documentation
//   $ rtlb_lint --fix-dry-run file.rtlb          # preview machine repairs
//   $ rtlb_lint --fix file.rtlb                  # apply them in place
//   $ rtlb_lint --baseline-write known.txt *.rtlb   # snapshot findings
//   $ rtlb_lint --baseline known.txt *.rtlb         # gate on NEW findings
//
// Flags:
//   --format=text|json   output format (default text)
//   --werror             promote warnings to errors (affects the exit code)
//   --max-errors N       stop after N error findings per file (0 = unlimited)
//   --quiet              suppress notes in text output
//   --explain CODE       print the registry entry for a diagnostic code
//   --trace FILE         write a Chrome trace-event file with one lint_gate
//                        span per linted file
//   --fix                apply machine-applicable fixes in place, then
//                        re-parse and re-lint; findings and the exit verdict
//                        reflect the REPAIRED file
//   --fix-dry-run        print the would-be repairs as a unified diff; the
//                        file, findings, and verdict are untouched
//   --baseline FILE      suppress findings whose "CODE<TAB>subject" key
//                        appears in FILE; only NEW findings are reported and
//                        judged (missing FILE is a usage error)
//   --baseline-write FILE  write the sorted, de-duplicated key set of every
//                        finding to FILE and exit 0 (a fresh baseline always
//                        passes itself)
//
// Exit status contract (stable, golden-tested):
//   0  no error findings in any file (after --werror promotion, after --fix
//      repairs, and after --baseline suppression), or --baseline-write
//      completed;
//   1  at least one (new) error finding survived;
//   2  usage error, I/O failure (unreadable input, unreadable --baseline
//      file, unwritable --fix or --baseline-write target), or out of memory.
// The error verdict is the analysis pipeline's own kErrors gate policy
// (lint_gate_refuses, src/core/pipeline.hpp), so this tool refuses exactly
// the instances `analyze()` at LintLevel::kErrors would.
//
// Files with `node` lines are additionally checked against the dedicated
// model (host coverage). Structurally broken files are parsed without
// validation so EVERY finding is reported, not just the first.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/baseline.hpp"
#include "src/lint/fixit.hpp"
#include "src/lint/linter.hpp"
#include "src/lint/recurrent.hpp"
#include "src/model/io.hpp"
#include "src/obs/trace.hpp"

using namespace rtlb;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--format=text|json] [--werror] [--max-errors N] [--quiet]\n"
               "          [--explain CODE] [--trace FILE] [--fix | --fix-dry-run]\n"
               "          [--baseline FILE | --baseline-write FILE] <instance-file>...\n",
               argv0);
  std::exit(2);
}

int explain_code(const std::string& code) {
  const DiagInfo* info = diag_info(code);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown diagnostic code '%s'; known codes:\n", code.c_str());
    for (const DiagInfo& d : all_diag_info()) std::fprintf(stderr, "  %s\n", d.code);
    return 2;
  }
  std::printf("%s (%s)\n  %s\n  fix: %s\n", info->code, severity_name(info->severity),
              info->summary, info->fixit);
  return 0;
}

/// The stable baseline identity of one finding. Deliberately line-free: a
/// baseline must survive unrelated edits that renumber the file.
std::string baseline_key(const Diagnostic& d) {
  return std::string(d.code) + "\t" + d.subject;
}

/// Lint one source text (already read from `path`, which is used only for
/// messages). Parse failures become a synthetic RTLB-E000 finding so the
/// output shape is uniform for tooling.
struct FileLint {
  bool parsed = false;   ///< inst holds a model (lint findings may still exist)
  ProblemInstance inst;  ///< valid only when parsed
  LintResult result;
};

FileLint lint_text(const std::string& text, const LintOptions& options, Trace* trace) {
  ScopedSpan span(trace, "lint_gate");
  FileLint out;
  try {
    out.inst = parse_instance_string(text, ParseOptions{.validate = false});
    out.parsed = true;
  } catch (const ModelError& e) {
    DiagnosticSink sink(out.result, options);
    Diagnostic d = sink.make("RTLB-E000", "", e.what());
    // parse errors carry "line N: ..." text; surface N structurally and
    // drop the now-redundant prefix from the message.
    if (int line = 0; std::sscanf(e.what(), "line %d:", &line) == 1) {
      d.line = line;
      if (const char* colon = std::strchr(e.what(), ':')) d.message = std::string(colon + 2);
    }
    sink.emit(std::move(d));
    return out;
  }
  // The front door's template half: a refusal reports the template batch
  // ALONE (flat passes would mis-judge declarations the templates use, e.g.
  // W201's fix would delete a proctype line the ttasks reference); otherwise
  // the flat lint of the lowered file is spliced behind the templates.
  try {
    LintResult templates = gate_and_lower(out.inst, LintLevel::kErrors, options);
    const DedicatedPlatform* platform =
        out.inst.platform.num_node_types() > 0 ? &out.inst.platform : nullptr;
    out.result = merge_lint_results(std::move(templates),
                                    lint(*out.inst.app, platform, &out.inst.lines, options));
  } catch (const LintGateError& e) {
    out.result = e.result();
  }
  span.count("diagnostics", static_cast<std::int64_t>(out.result.diagnostics.size()));
  return out;
}

/// Drop baselined findings and recount. Keeps `truncated` (the cap applied
/// to the unfiltered run; "possibly more findings" stays true).
LintResult suppress_baselined(const LintResult& result,
                              const std::set<std::string>& baseline) {
  LintResult out;
  out.truncated = result.truncated;
  for (const Diagnostic& d : result.diagnostics) {
    if (baseline.count(baseline_key(d)) > 0) continue;
    switch (d.severity) {
      case Severity::kError: ++out.errors; break;
      case Severity::kWarning: ++out.warnings; break;
      case Severity::kNote: ++out.notes; break;
    }
    out.diagnostics.push_back(d);
  }
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  LintOptions options;
  std::string format = "text";
  std::string trace_path;
  Trace trace;
  bool quiet = false;
  bool fix = false;
  bool fix_dry_run = false;
  std::string baseline_path;
  std::string baseline_write_path;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format" || arg.rfind("--format=", 0) == 0) {
      if (arg == "--format") {
        if (++i >= argc) usage(argv[0]);
        format = argv[i];
      } else {
        format = arg.substr(std::strlen("--format="));
      }
      if (format != "text" && format != "json") usage(argv[0]);
    } else if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "--max-errors" || arg.rfind("--max-errors=", 0) == 0) {
      std::string value;
      if (arg == "--max-errors") {
        if (++i >= argc) usage(argv[0]);
        value = argv[i];
      } else {
        value = arg.substr(std::strlen("--max-errors="));
      }
      const std::optional<int> max_errors = parse_int_arg(value);
      if (!max_errors || *max_errors < 0) usage(argv[0]);
      options.max_errors = *max_errors;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--fix-dry-run") {
      fix_dry_run = true;
    } else if (arg == "--baseline") {
      if (++i >= argc) usage(argv[0]);
      baseline_path = argv[i];
    } else if (arg == "--baseline-write") {
      if (++i >= argc) usage(argv[0]);
      baseline_write_path = argv[i];
    } else if (arg == "--explain") {
      if (++i >= argc) usage(argv[0]);
      return explain_code(argv[i]);
    } else if (arg == "--trace") {
      if (++i >= argc) usage(argv[0]);
      trace_path = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) usage(argv[0]);
  if (fix && fix_dry_run) usage(argv[0]);
  if (!baseline_path.empty() && !baseline_write_path.empty()) usage(argv[0]);

  std::set<std::string> baseline;
  if (!baseline_path.empty()) {
    try {
      baseline = read_baseline_file(baseline_path);
    } catch (const ModelError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  bool io_error = false;
  bool any_error = false;
  std::set<std::string> baseline_out;
  JsonWriter files(2);
  files.begin_array();

  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
      io_error = true;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();

    Trace* tr = trace_path.empty() ? nullptr : &trace;
    FileLint file = lint_text(text, options, tr);
    LintResult result = std::move(file.result);

    int fixes_applied = 0;
    int fixes_skipped = 0;
    if ((fix || fix_dry_run) && file.parsed) {
      const FixApplication repair = apply_fixes(text, result);
      fixes_applied = repair.applied;
      fixes_skipped = repair.skipped_conflict;
      if (fix_dry_run && repair.changed() && format != "json") {
        std::printf("%s", fix_diff(text, repair.text, path).c_str());
      }
      if (fix && repair.changed()) {
        std::ofstream out(path, std::ios::trunc);
        if (!out || !(out << repair.text)) {
          std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
          io_error = true;
          continue;
        }
        out.close();
        // Findings and the verdict now describe the repaired file.
        result = lint_text(repair.text, options, tr).result;
      }
    }

    if (!baseline_write_path.empty()) {
      for (const Diagnostic& d : result.diagnostics) baseline_out.insert(baseline_key(d));
      continue;
    }
    if (!baseline.empty()) result = suppress_baselined(result, baseline);

    // The CI exit verdict IS the pipeline's kErrors gate policy (--werror
    // already promoted warnings inside the sink, so they count as errors
    // here exactly as they would refuse an analyze() call).
    any_error |= lint_gate_refuses(result, LintLevel::kErrors);

    if (format == "json") {
      files.begin_object().field("file", path).field("lint", lint_json(result));
      if (fix || fix_dry_run) {
        files.field("fixes_applied", fixes_applied).field("fixes_skipped", fixes_skipped);
      }
      files.end_object();
      continue;
    }
    if (paths.size() > 1) std::printf("== %s ==\n", path.c_str());
    for (const Diagnostic& d : result.diagnostics) {
      if (quiet && d.severity == Severity::kNote) continue;
      std::printf("%s\n", format_diagnostic(d, path).c_str());
    }
    if (fix || fix_dry_run) {
      std::printf("%s: %s %d fix(es)%s\n", path.c_str(),
                  fix ? "applied" : "would apply", fixes_applied,
                  fixes_skipped > 0
                      ? (" (" + std::to_string(fixes_skipped) + " conflict(s) skipped)").c_str()
                      : "");
    }
    std::printf("%s: %d error(s), %d warning(s), %d note(s)%s\n", path.c_str(),
                result.errors, result.warnings, result.notes,
                result.truncated ? " (truncated by --max-errors)" : "");
  }

  if (!baseline_write_path.empty()) {
    try {
      write_baseline_file(baseline_write_path, baseline_out);
    } catch (const ModelError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    return io_error ? 2 : 0;
  }

  if (format == "json") std::printf("%s\n", files.end_array().take().c_str());
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << trace.chrome_json().dump(2) << "\n";
  }
  if (io_error) return 2;
  return any_error ? 1 : 0;
}

int main(int argc, char** argv) {
  // Inputs whose size the lint passes cannot bound up front still end in
  // the documented exit status instead of an abort.
  try {
    return run(argc, argv);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "rtlb_lint: out of memory\n");
    return 2;
  }
}
