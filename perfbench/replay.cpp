#include "replay.hpp"

#include <optional>

#include "src/core/mergeable.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/lint/absint.hpp"
#include "src/verify/emit.hpp"

namespace perfbench {

using namespace rtlb;

namespace {

TaskWindows windows_for(const Application& app, const DedicatedPlatform* platform,
                        int threads) {
  if (platform != nullptr) {
    DedicatedMergeOracle oracle(*platform);
    return compute_windows(app, oracle, threads);
  }
  SharedMergeOracle oracle;
  return compute_windows(app, oracle, threads);
}

/// lint(app, platform) pass by pass: structural passes first, then -- on a
/// structurally clean model -- the interpretation and the windows it gates,
/// then the model passes, exactly as Linter::run orders them.
LintResult replay_lint(const Application& app, const DedicatedPlatform* platform,
                       Trace* trace) {
  const std::vector<LintPass>& passes = default_linter().passes();
  LintResult result;
  DiagnosticSink sink(result, LintOptions{});
  LintContext ctx{app, platform, nullptr, nullptr, nullptr};
  auto run = [&](const LintPass& pass) {
    ScopedSpan span(trace, "lint.pass." + pass.name);
    pass.run(ctx, sink);
  };
  for (const LintPass& pass : passes) {
    if (!pass.needs_valid_model) run(pass);
  }
  if (result.has_errors()) return result;

  std::optional<AbsIntResult> absint;
  {
    ScopedSpan span(trace, "lint.context.absint");
    absint = abstract_interpret(app, platform);
  }
  ctx.absint = &*absint;
  TaskWindows windows;
  if (absint->windows_safe()) {
    ScopedSpan span(trace, "lint.context.windows");
    windows = windows_for(app, platform, 1);
    ctx.windows = &windows;
  }
  for (const LintPass& pass : passes) {
    if (!pass.needs_valid_model) continue;
    if (sink.capped()) break;
    run(pass);
  }
  return result;
}

void serialize(const Application& app, ReplayOutput& out, Trace* trace) {
  {
    ScopedSpan span(trace, "json.report");
    out.report = report_json(app, out.result).dump();
    span.count("json.bytes", static_cast<std::int64_t>(out.report.size()));
  }
  if (out.result.certificate) {
    ScopedSpan span(trace, "json.certificate");
    out.certificate = certificate_json(*out.result.certificate).dump();
    span.count("json.bytes", static_cast<std::int64_t>(out.certificate.size()));
  }
}

}  // namespace

ReplayOutput replay_pipeline(const Application& app, const AnalysisOptions& options,
                             const DedicatedPlatform* platform, Trace* trace) {
  RTLB_CHECK(!options.joint_bounds && options.trace == nullptr,
             "replay_pipeline: joint bounds and pipeline traces are not replayed");
  const bool dedicated = options.model == SystemModel::Dedicated;
  if (dedicated && platform == nullptr) {
    throw ModelError("analyze: dedicated model requires a platform");
  }
  ReplayOutput out;
  AnalysisResult& result = out.result;
  result.lb_options = options.lower_bound;

  {
    ScopedSpan span(trace, "lint.total");
    if (options.lint_level == LintLevel::kOff) {
      app.validate();
    } else {
      LintResult lint = replay_lint(app, platform, trace);
      if (lint_gate_refuses(lint, options.lint_level)) throw LintGateError(std::move(lint));
      result.lint = std::move(lint);
    }
  }
  {
    ScopedSpan span(trace, "core.windows");
    result.windows =
        windows_for(app, dedicated ? platform : nullptr, options.lower_bound.num_threads);
  }
  {
    ScopedSpan span(trace, "core.partitions");
    result.partitions = partition_all(app, result.windows);
    std::int64_t blocks = 0;
    for (const ResourcePartition& p : result.partitions) {
      blocks += static_cast<std::int64_t>(p.blocks.size());
    }
    span.count("core.blocks", blocks);
  }
  {
    ScopedSpan span(trace, "core.bounds");
    result.bounds = all_resource_bounds(app, result.windows, options.lower_bound);
    std::int64_t intervals = 0;
    for (const ResourceBound& b : result.bounds) {
      intervals += static_cast<std::int64_t>(b.intervals_evaluated);
    }
    span.count("core.intervals_evaluated", intervals);
  }
  result.rebuild_bound_index();
  {
    ScopedSpan span(trace, "core.costs");
    result.shared_cost = shared_cost_bound(app, result.bounds);
    if (platform != nullptr) {
      result.dedicated_cost = dedicated_cost_bound(app, *platform, result.bounds);
      span.count("lp.ilp_nodes", result.dedicated_cost->ilp_nodes);
    }
  }
  if (options.emit_certificates || options.check_certificates) {
    {
      ScopedSpan span(trace, "verify.emit");
      result.certificate = build_certificate(app, options, platform, result);
    }
    if (options.check_certificates) {
      ScopedSpan span(trace, "verify.check");
      CheckReport report = check_certificate(*result.certificate, app, platform);
      if (!report.valid) throw CertificateCheckError(std::move(report));
      result.certificate_check = std::move(report);
    }
  }
  serialize(app, out, trace);
  return out;
}

ReplayOutput run_and_serialize(const Application& app, const AnalysisOptions& options,
                               const DedicatedPlatform* platform) {
  ReplayOutput out;
  out.result = run_pipeline(app, options, platform);
  serialize(app, out, nullptr);
  return out;
}

}  // namespace perfbench
