// rtlb-check: independent certificate checker for rtlb analysis results.
//
//   $ rtlb_check --emit examples/instances/paper.rtlb > paper.cert.json
//   $ rtlb_check examples/instances/paper.rtlb paper.cert.json
//   paper.rtlb: certificate OK (15 window facts, 1 bound, dedicated cost)
//
// Check mode (the default) loads an instance plus a certificate JSON file
// and re-judges every recorded fact against the theorem side-conditions
// using ONLY the problem model -- none of the optimized pipeline code is
// linked into the verdict (see src/verify/checker.hpp). Emit mode runs the
// pipeline and prints the certificate JSON for the result, so a cert can be
// produced on one machine and audited on another.
//
// Flags:
//   --emit               analyze the instance, print its certificate JSON
//   --model shared|dedicated   emit-mode analysis model (default: dedicated
//                              when the file has `node` lines, else shared)
//   --joint              emit-mode: include the conjunctive pair-bound
//                        extension rows
//   --trace FILE         emit-mode: write a Chrome trace-event file of the
//                        pipeline run that produced the certificate
//   --format=text|json   check-mode verdict format (default text)
//   --quiet              check-mode: verdict line only, no failure detail
//
// Exit status: 0 = certificate valid (every side-condition holds);
// 1 = certificate well-formed but INVALID, each violated side-condition
// pinpointed as stage/rule subject; 2 = malformed input (unreadable or
// structurally broken instance, unparseable JSON, ill-formed certificate,
// a workload over the lowering budget), bad usage, or out of memory.
#include <cstdio>
#include <new>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/core/analysis.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/recurrent.hpp"
#include "src/model/io.hpp"
#include "src/obs/trace.hpp"
#include "src/workload/workload.hpp"
#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"

using namespace rtlb;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--format=text|json] [--quiet] <instance-file> <certificate-json>\n"
               "       %s --emit [--model shared|dedicated] [--joint] [--trace FILE]\n"
               "          <instance-file>\n",
               argv0, argv0);
  std::exit(2);
}

/// Structural pre-gate: a certificate is judged against a well-formed model,
/// so structurally broken instances are "malformed input" (exit 2), not a
/// checker verdict. The judgment is the analysis pipeline's own kReport gate
/// (run_lint_gate, src/core/pipeline.hpp) -- the same refusal set as
/// Application::validate(), but reporting EVERY structural finding at once.
bool load_instance(const std::string& path, ProblemInstance* inst) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return false;
  }
  try {
    *inst = parse_instance(in, ParseOptions{.validate = false});
    const DedicatedPlatform* platform =
        inst->platform.num_node_types() > 0 ? &inst->platform : nullptr;
    if (!inst->workload.empty()) {
      // Recurrent files must pass the template gate before lowering; the
      // certificate is then judged against the LOWERED application, exactly
      // the model analyze(Workload) proved its facts on.
      LintResult templates = lint_workload(*inst->catalog, inst->workload, platform);
      if (templates.errors > 0) throw LintGateError(std::move(templates));
      lower_instance(*inst, LowerOptions{.chain_instances = true, .validate = false});
      inst->app->validate();
    }
    run_lint_gate(*inst->app, platform, LintLevel::kReport, &inst->lines);
  } catch (const LintGateError& e) {
    std::fprintf(stderr, "%s: malformed instance:\n%s", path.c_str(),
                 format_lint_text(e.result(), path).c_str());
    return false;
  } catch (const ModelError& e) {
    std::fprintf(stderr, "%s: malformed instance: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

int run_emit(const std::string& path, SystemModel model, bool model_given, bool joint,
             const std::string& trace_path) {
  ProblemInstance inst;
  if (!load_instance(path, &inst)) return 2;
  const DedicatedPlatform* platform =
      inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;

  Trace trace;
  AnalysisOptions options;
  options.model = model_given ? model
                  : platform  ? SystemModel::Dedicated
                              : SystemModel::Shared;
  options.joint_bounds = joint;
  options.emit_certificates = true;
  if (!trace_path.empty()) options.trace = &trace;
  if (options.model == SystemModel::Dedicated && platform == nullptr) {
    std::fprintf(stderr, "--model dedicated needs `node` lines in the instance file\n");
    return 2;
  }

  // A refusal past the gate (kWindows' RTLB-E310 on windows out of range)
  // is malformed input too, reported the way load_instance reports it.
  AnalysisResult result;
  try {
    result = analyze(*inst.app, options, platform);
  } catch (const ModelError& e) {
    std::fprintf(stderr, "%s: malformed instance: %s\n", path.c_str(), e.what());
    return 2;
  }
  std::printf("%s\n", certificate_json(*result.certificate).dump(2).c_str());
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << trace.chrome_json().dump(2) << "\n";
  }
  return 0;
}

int run_check(const std::string& instance_path, const std::string& cert_path,
              const std::string& format, bool quiet) {
  ProblemInstance inst;
  if (!load_instance(instance_path, &inst)) return 2;

  std::ifstream in(cert_path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", cert_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  Certificate cert;
  try {
    cert = parse_certificate_text(buffer.str());
  } catch (const JsonParseError& e) {
    std::fprintf(stderr, "%s: malformed JSON: %s\n", cert_path.c_str(), e.what());
    return 2;
  } catch (const CertificateFormatError& e) {
    std::fprintf(stderr, "%s: malformed certificate: %s\n", cert_path.c_str(), e.what());
    return 2;
  }

  const DedicatedPlatform* platform =
      inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;
  const CheckReport report = check_certificate(cert, *inst.app, platform);

  if (format == "json") {
    Json root = Json::object();
    root.set("instance", instance_path)
        .set("certificate", cert_path)
        .set("valid", report.valid);
    Json failures = Json::array();
    for (const CheckFailure& f : report.failures) {
      failures.push(Json::object()
                        .set("stage", f.stage)
                        .set("rule", f.rule)
                        .set("subject", f.subject)
                        .set("detail", f.detail));
    }
    root.set("failures", std::move(failures));
    std::printf("%s\n", root.dump(2).c_str());
    return report.valid ? 0 : 1;
  }

  if (report.valid) {
    std::printf("%s: certificate OK (%zu window facts, %zu bounds%s%s)\n",
                instance_path.c_str(), cert.windows.size(), cert.bounds.size(),
                cert.has_joint ? ", joint rows" : "",
                cert.dedicated_cost ? ", dedicated cost" : "");
    return 0;
  }
  if (!quiet) std::printf("%s", report.summary().c_str());
  std::printf("%s: certificate INVALID (%zu violated side-condition%s)\n",
              instance_path.c_str(), report.failures.size(),
              report.failures.size() == 1 ? "" : "s");
  return 1;
}

}  // namespace

int run(int argc, char** argv) {
  bool emit = false;
  bool joint = false;
  bool quiet = false;
  bool model_given = false;
  SystemModel model = SystemModel::Shared;
  std::string format = "text";
  std::string trace_path;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--emit") {
      emit = true;
    } else if (arg == "--joint") {
      joint = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--trace") {
      if (++i >= argc) usage(argv[0]);
      trace_path = argv[i];
    } else if (arg == "--model") {
      if (++i >= argc) usage(argv[0]);
      const std::string value = argv[i];
      if (value == "shared") model = SystemModel::Shared;
      else if (value == "dedicated") model = SystemModel::Dedicated;
      else usage(argv[0]);
      model_given = true;
    } else if (arg == "--format" || arg.rfind("--format=", 0) == 0) {
      if (arg == "--format") {
        if (++i >= argc) usage(argv[0]);
        format = argv[i];
      } else {
        format = arg.substr(std::strlen("--format="));
      }
      if (format != "text" && format != "json") usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }

  if (emit) {
    if (paths.size() != 1) usage(argv[0]);
    return run_emit(paths[0], model, model_given, joint, trace_path);
  }
  if (paths.size() != 2) usage(argv[0]);
  return run_check(paths[0], paths[1], format, quiet);
}

int main(int argc, char** argv) {
  // Inputs whose size the lint gate cannot bound up front still end in the
  // documented exit status instead of an abort.
  try {
    return run(argc, argv);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "rtlb_check: out of memory\n");
    return 2;
  }
}
