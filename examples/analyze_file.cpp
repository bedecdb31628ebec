// File-driven analysis CLI: read a problem instance in the rtlb text format,
// run the four-step analysis, and optionally schedule it and draw a Gantt
// chart.
//
//   $ ./example_analyze_file examples/instances/paper.rtlb
//   $ ./example_analyze_file --model dedicated --schedule --gantt file.rtlb
//   $ ./example_analyze_file --units 3 --schedule anneal --gantt file.rtlb
//
// Flags:
//   --model shared|dedicated   analysis model (default shared; dedicated
//                              needs `node` lines in the file)
//   --schedule [edf|anneal]    also construct a shared-model schedule with
//                              --units units of everything (default edf)
//   --units N                  capacity per resource for --schedule (default
//                              the per-resource LB_r values)
//   --gantt                    render the schedule as ASCII lanes
//   --svg FILE                 write the schedule as an SVG document
//   --json FILE                write the analysis report as JSON
//   --no-partition             evaluate bounds without Theorem-5 blocks
//   --threads N                scan threads for the bound engine (1 =
//                              serial, 0 = one per hardware thread);
//                              results are identical at any value
//   --prune                    skip candidate intervals that cannot beat
//                              the incumbent density (same bounds, fewer
//                              intervals evaluated)
//   --lint LEVEL               pre-flight lint gate: off, report, errors
//                              (default), or warnings. Diagnostics are
//                              printed before the analysis; at `errors` and
//                              above, instances with error-level findings
//                              are refused (exit 1) before any bounding.
//                              Lint-clean instances produce byte-identical
//                              results at every level.
//   --cert FILE                write the pipeline certificate as JSON
//                              (auditable offline with tools/rtlb_check)
//   --check                    run the independent certificate checker on
//                              the result before printing it; a violated
//                              side-condition aborts with the pinpointed
//                              failure (exit 1)
//   --trace FILE               instrument the pipeline run and write a
//                              Chrome trace-event file (one span per stage,
//                              work counters as args; open in
//                              chrome://tracing or Perfetto). With --json,
//                              the report also gains a "timing" block.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "src/common/strings.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/model/io.hpp"
#include "src/obs/trace.hpp"
#include "src/sched/annealing.hpp"
#include "src/sched/feasibility.hpp"
#include "src/sched/gantt.hpp"
#include "src/sched/list_scheduler.hpp"
#include "src/sched/svg.hpp"
#include "src/workload/characterize.hpp"

using namespace rtlb;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--model shared|dedicated] [--schedule [edf|anneal]]\n"
               "          [--units N] [--gantt] [--no-partition] [--threads N]\n"
               "          [--prune] [--lint off|report|errors|warnings]\n"
               "          [--cert FILE] [--check] [--trace FILE] <instance-file>\n",
               argv0);
  std::exit(2);
}

int int_arg(const char* text, const char* argv0) {
  const std::optional<int> value = parse_int_arg(text);
  if (!value) usage(argv0);
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  AnalysisOptions options;
  options.lint_level = LintLevel::kErrors;  // pre-flight gate on by default
  bool want_schedule = false;
  bool want_gantt = false;
  std::string svg_path;
  std::string json_path;
  std::string scheduler = "edf";
  std::string cert_path;
  std::string trace_path;
  Trace trace;
  int units = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model") {
      if (++i >= argc) usage(argv[0]);
      const std::string model = argv[i];
      if (model == "shared") options.model = SystemModel::Shared;
      else if (model == "dedicated") options.model = SystemModel::Dedicated;
      else usage(argv[0]);
    } else if (arg == "--schedule") {
      want_schedule = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "edf") == 0 ||
                           std::strcmp(argv[i + 1], "anneal") == 0)) {
        scheduler = argv[++i];
      }
    } else if (arg == "--units") {
      if (++i >= argc) usage(argv[0]);
      units = int_arg(argv[i], argv[0]);
    } else if (arg == "--gantt") {
      want_gantt = true;
    } else if (arg == "--svg") {
      if (++i >= argc) usage(argv[0]);
      svg_path = argv[i];
      want_schedule = true;
    } else if (arg == "--json") {
      if (++i >= argc) usage(argv[0]);
      json_path = argv[i];
    } else if (arg == "--no-partition") {
      options.lower_bound.use_partitioning = false;
    } else if (arg == "--threads") {
      if (++i >= argc) usage(argv[0]);
      options.lower_bound.num_threads = int_arg(argv[i], argv[0]);
    } else if (arg == "--prune") {
      options.lower_bound.enable_pruning = true;
    } else if (arg == "--cert") {
      if (++i >= argc) usage(argv[0]);
      cert_path = argv[i];
      options.emit_certificates = true;
    } else if (arg == "--check") {
      options.check_certificates = true;
    } else if (arg == "--trace") {
      if (++i >= argc) usage(argv[0]);
      trace_path = argv[i];
      options.trace = &trace;
    } else if (arg == "--lint") {
      if (++i >= argc) usage(argv[0]);
      const std::string level = argv[i];
      if (level == "off") options.lint_level = LintLevel::kOff;
      else if (level == "report") options.lint_level = LintLevel::kReport;
      else if (level == "errors") options.lint_level = LintLevel::kErrors;
      else if (level == "warnings") options.lint_level = LintLevel::kWarnings;
      else usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      path = arg;
    }
  }
  if (path.empty()) usage(argv[0]);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 1;
  }

  ProblemInstance inst;
  try {
    // With the lint gate on, skip parse-time validation so the gate can
    // report EVERY structural finding as one batch instead of the first.
    inst = parse_instance(in, ParseOptions{.validate = options.lint_level == LintLevel::kOff});
  } catch (const ModelError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }

  const DedicatedPlatform* platform =
      inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;
  if (options.model == SystemModel::Dedicated && platform == nullptr) {
    std::fprintf(stderr, "--model dedicated needs `node` lines in the instance file\n");
    return 1;
  }

  // The front door (src/core/pipeline.hpp): template errors refuse at every
  // --lint level; the pipeline's kLintGate then gates the lowered model.
  try {
    const LintResult templates = gate_and_lower(inst, options.lint_level);
    if (!templates.clean()) {
      std::printf("template lint:\n%s\n", format_lint_text(templates, path).c_str());
    }
  } catch (const LintGateError& e) {
    std::printf("template lint:\n%s\n", format_lint_text(e.result(), path).c_str());
    std::fprintf(stderr, "template %s refuse lowering; fix the findings above\n",
                 e.result().has_errors() ? "errors" : "warnings");
    return 1;
  }
  AnalysisResult result;
  try {
    result = analyze(*inst.app, options, platform);
  } catch (const LintGateError&) {
    // The recorded lint (printed below and in the --json report) stays
    // line-free; a refusal is worth a second lint that names every line.
    std::fprintf(stderr, "%s",
                 format_lint_text(lint(*inst.app, platform, &inst.lines), path).c_str());
    std::fprintf(stderr, "pre-flight gate refused the instance; fix the errors above or "
                         "re-run with --lint report\n");
    return 1;
  } catch (const CertificateCheckError& e) {
    std::fprintf(stderr, "%s", e.what());
    return 1;
  } catch (const ModelError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  if (result.lint && !result.lint->clean()) {
    std::printf("pre-flight lint:\n%s\n", format_lint_text(*result.lint, path).c_str());
  }

  std::printf("profile:\n%s\n",
              format_profile(*inst.app, characterize(*inst.app, result.windows)).c_str());
  std::printf("%s\n", format_windows_table(*inst.app, result.windows).c_str());
  std::printf("%s\n", format_partitions(*inst.app, result.partitions).c_str());
  std::printf("%s\n", format_bounds(*inst.app, result.bounds).c_str());
  std::printf("shared-model cost >= %lld\n", static_cast<long long>(result.shared_cost.total));
  if (result.dedicated_cost) {
    if (result.dedicated_cost->feasible) {
      std::printf("dedicated-model cost >= %lld (LP relaxation %.2f)\n",
                  static_cast<long long>(result.dedicated_cost->total),
                  result.dedicated_cost->relaxation);
    } else {
      std::printf("dedicated model: no assembly of the node menu can host every task\n");
    }
  }
  if (result.infeasible(*inst.app)) {
    std::printf("\nWARNING: some task window is smaller than its computation time --\n"
                "the constraints are infeasible on ANY system.\n");
  }

  if (result.certificate_check) {
    std::printf("certificate: every side-condition independently re-checked\n");
  }
  if (!cert_path.empty() && result.certificate) {
    std::ofstream out(cert_path);
    out << certificate_json(*result.certificate).dump(2) << "\n";
    std::printf("wrote certificate to %s (audit with tools/rtlb_check)\n", cert_path.c_str());
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << trace.chrome_json().dump(2) << "\n";
    std::printf("wrote pipeline trace to %s (chrome://tracing)\n", trace_path.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << report_json(*inst.app, result, options.trace).dump(2) << "\n";
    std::printf("wrote analysis report to %s\n", json_path.c_str());
  }

  if (!want_schedule) return 0;

  Capacities caps(inst.catalog->size(), 0);
  for (const ResourceBound& b : result.bounds) {
    caps.set(b.resource, units > 0 ? units : static_cast<int>(b.bound));
  }
  std::printf("\nscheduling (%s) with units:", scheduler.c_str());
  for (ResourceId r : inst.app->resource_set()) {
    std::printf(" %s=%d", inst.catalog->name(r).c_str(), caps.of(r));
  }
  std::printf("\n");

  Schedule schedule(inst.app->num_tasks());
  bool feasible = false;
  if (scheduler == "edf") {
    ListScheduleResult r = list_schedule_shared(*inst.app, caps);
    feasible = r.feasible;
    schedule = std::move(r.schedule);
    if (!feasible) std::printf("EDF failed: %s\n", r.failure.c_str());
  } else {
    AnnealOptions sa;
    sa.max_evaluations = 20000;
    AnnealResult r = anneal_schedule_shared(*inst.app, caps, sa);
    feasible = r.feasible;
    schedule = std::move(r.schedule);
    if (!feasible) {
      std::printf("annealing: best residual tardiness %lld after %d evaluations\n",
                  static_cast<long long>(r.best_energy), r.evaluations);
    }
  }
  if (feasible) {
    const auto violations = check_shared(*inst.app, schedule, caps);
    std::printf("schedule found; validator: %s\n",
                violations.empty() ? "clean" : violations.front().c_str());
  }
  if (want_gantt && schedule.complete()) {
    std::printf("\n%s", render_gantt_shared(*inst.app, schedule, caps).c_str());
  }
  if (!svg_path.empty() && schedule.complete()) {
    std::ofstream out(svg_path);
    out << render_svg_shared(*inst.app, schedule, caps);
    std::printf("wrote SVG timetable to %s\n", svg_path.c_str());
  }
  return feasible ? 0 : 1;
}
