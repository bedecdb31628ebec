#include "src/core/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "src/common/thread_pool.hpp"
#include "src/lint/recurrent.hpp"
#include "src/obs/trace.hpp"
#include "src/verify/emit.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {

namespace {

constexpr const char* const kStageNames[kNumStages] = {
    "lint_gate", "windows", "partitions", "bounds", "costs",
};

/// The rows the Section-7 ILP reads from the bound stage: (resource, LB_r)
/// per resource. Witnesses and work counters do not feed the program.
bool same_bound_rows(const std::vector<ResourceBound>& a,
                     const std::vector<ResourceBound>& b) {
  return std::ranges::equal(a, b, [](const ResourceBound& x, const ResourceBound& y) {
    return x.resource == y.resource && x.bound == y.bound;
  });
}

/// The conjunctive rows the joint ILP reads: (a, b, LB_{a,b}).
bool same_joint_rows(const std::vector<JointBound>& a, const std::vector<JointBound>& b) {
  return std::ranges::equal(a, b, [](const JointBound& x, const JointBound& y) {
    return x.a == y.a && x.b == y.b && x.bound == y.bound;
  });
}

/// gate_and_lower()'s template refusal policy.
LintResult gate_templates(const ResourceCatalog& catalog, const Workload& workload,
                          const DedicatedPlatform* platform, LintLevel level,
                          const LintOptions& lint_options) {
  LintResult templates = lint_workload(catalog, workload, platform, lint_options);
  if (templates.has_errors() || lint_gate_refuses(templates, level)) {
    throw LintGateError(std::move(templates));
  }
  return templates;
}

constexpr LowerOptions kUnvalidated{.chain_instances = true, .validate = false};

}  // namespace

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<int>(stage)];
}

std::span<const char* const> stage_names() {
  return {kStageNames, static_cast<std::size_t>(kNumStages)};
}

bool lint_gate_refuses(const LintResult& result, LintLevel level) {
  switch (level) {
    case LintLevel::kOff:
      // The gate never refuses at kOff; structural safety is validate()'s
      // (first-error) job on that path.
      return false;
    case LintLevel::kReport: {
      // validate()'s refusal set -- structural (RTLB-E0xx) errors -- plus a
      // proved window overflow (RTLB-E310), which kWindows would refuse
      // anyway; refusing here reports absint's witness chain with it.
      // Other semantic errors (window collapse, uncoverable tasks) are
      // recorded but analyzed.
      bool refused = false;
      for (const Diagnostic& d : result.diagnostics) {
        refused |= d.severity == Severity::kError &&
                   (d.code.starts_with("RTLB-E0") || d.code == "RTLB-E310");
      }
      return refused;
    }
    case LintLevel::kErrors:
      return result.has_errors();
    case LintLevel::kWarnings:
      return result.has_errors() || result.warnings > 0;
  }
  return false;
}

LintGateArtifact run_lint_gate(const Application& app, const DedicatedPlatform* platform,
                               LintLevel level, const SourceMap* lines, Trace* trace) {
  LintGateArtifact gate;
  if (level == LintLevel::kOff) {
    app.validate();
    return gate;
  }
  LintResult result =
      lint(app, platform, lines, {.trace = trace}, &gate.windows, &gate.partitions);
  if (lint_gate_refuses(result, level)) throw LintGateError(std::move(result));
  gate.lint = std::move(result);
  return gate;
}

LintResult gate_and_lower(ProblemInstance& inst, LintLevel level,
                          const LintOptions& lint_options) {
  if (inst.workload.empty()) return {};
  const DedicatedPlatform* platform = inst.platform.num_node_types() ? &inst.platform : nullptr;
  LintResult templates =
      gate_templates(*inst.catalog, inst.workload, platform, level, lint_options);
  lower_instance(inst, kUnvalidated);
  return templates;
}

Application gate_and_lower(const ResourceCatalog& catalog, const Workload& workload,
                           const DedicatedPlatform* platform, LintLevel level,
                           LintResult* templates) {
  LintResult found = gate_templates(catalog, workload, platform, level, {});
  Application app = lower_workload(catalog, workload, kUnvalidated);
  app.validate();
  if (templates != nullptr) *templates = std::move(found);
  return app;
}

AnalysisResult run_pipeline(const Application& app, const AnalysisOptions& options,
                            const DedicatedPlatform* platform, PipelineReuse& reuse,
                            const SourceMap* lines) {
  const bool dedicated = options.model == SystemModel::Dedicated;
  if (dedicated && platform == nullptr) {
    throw ModelError("analyze: dedicated model requires a platform");
  }

  Trace* trace = options.trace;
  ScopedSpan run_span(trace, "pipeline");

  AnalysisResult result;
  result.lb_options = options.lower_bound;

  // Stage kLintGate: batch-diagnose the instance before spending bound-scan
  // time on it. Every query lints fresh through run_lint_gate, so refusals
  // always reflect the current model; the lint's windows are handed to
  // kWindows below.
  LintGateArtifact gate;
  {
    ScopedSpan span(trace, stage_name(Stage::kLintGate));
    gate = run_lint_gate(app, platform, options.lint_level, lines, trace);
    if (gate.lint) {
      span.count("diagnostics", static_cast<std::int64_t>(gate.lint->diagnostics.size()));
    }
    result.lint = std::move(gate.lint);
  }

  // Stage kWindows: EST/LCT under the model's mergeability notion. The
  // lint's windows use the dedicated oracle iff a platform is given, so
  // they are taken only when that is the model's oracle; otherwise a
  // recompute, which refuses out-of-range windows itself (RTLB-E310).
  const bool from_lint = gate.windows && dedicated == (platform != nullptr);
  {
    ScopedSpan span(trace, stage_name(Stage::kWindows));
    if (from_lint) {
      result.windows = std::move(*gate.windows);
      span.count("from_lint", 1);
    } else {
      result.windows = compute_windows(app, dedicated ? platform : nullptr);
    }
    span.count("tasks", static_cast<std::int64_t>(app.num_tasks()));
  }
  // Every later replay keys on this verdict: the same task structure with
  // value-equal windows (a deadline already clipped to the same tick, a
  // message off the critical path) leaves partitions unchanged, and with
  // unchanged demand the bounds and joint rows too.
  const AnalysisResult* prev = reuse.prev;
  const bool windows_unchanged =
      prev != nullptr && !reuse.structure_changed && result.windows == prev->windows;
  const bool theta_unchanged = windows_unchanged && !reuse.demand_changed;

  // Stage kPartitions: a pure function of the task sets and windows
  // (recorded even when the bound evaluation is asked to run unpartitioned,
  // so callers can always inspect them). Windows taken from the lint come
  // with the lint's partitions of them.
  {
    ScopedSpan span(trace, stage_name(Stage::kPartitions));
    reuse.replayed_partitions = windows_unchanged;
    // With unchanged windows the lint's partitions equal prev's: moving
    // them saves the copy.
    if (from_lint) {
      result.partitions = std::move(gate.partitions);
    } else if (windows_unchanged) {
      result.partitions = prev->partitions;
    } else {
      result.partitions = partition_all(app, result.windows);
    }
    if (windows_unchanged) {
      span.count("reused", 1);
    } else if (from_lint) {
      span.count("from_lint", 1);
    }
    std::int64_t blocks = 0;
    for (const ResourcePartition& p : result.partitions) {
      blocks += static_cast<std::int64_t>(p.blocks.size());
    }
    span.count("resources", static_cast<std::int64_t>(result.partitions.size()));
    span.count("blocks", blocks);
  }

  // Stage kBounds: LB_r for every r in RES (+ the conjunctive extension
  // rows), scanned over the kPartitions product. Unchanged Theta inputs
  // replay the whole vector; otherwise the block memo (when given) reuses
  // every partition block the delta left value-unchanged (Theorem 5
  // independence), and only missed blocks are scanned.
  {
    ScopedSpan span(trace, stage_name(Stage::kBounds));
    const std::uint64_t pool_before = ThreadPool::tasks_dispatched();
    reuse.replayed_bounds = theta_unchanged;
    if (theta_unchanged) {
      result.bounds = prev->bounds;
      span.count("reused", 1);
    } else {
      BlockScanCache* block_cache = reuse.blocks;
      const std::uint64_t hits = block_cache ? block_cache->hits() : 0;
      const std::uint64_t misses = block_cache ? block_cache->misses() : 0;
      result.bounds = all_resource_bounds(app, result.windows, result.partitions,
                                          options.lower_bound, block_cache);
      if (block_cache != nullptr) {
        span.count("block_cache_hits", static_cast<std::int64_t>(block_cache->hits() - hits));
        span.count("block_cache_misses",
                   static_cast<std::int64_t>(block_cache->misses() - misses));
      }
    }
    if (options.joint_bounds) {
      reuse.replayed_joint = theta_unchanged;
      result.joint = theta_unchanged ? prev->joint : joint_lower_bounds(app, result.windows);
    }
    std::int64_t intervals = 0;
    for (const ResourceBound& b : result.bounds) {
      intervals += static_cast<std::int64_t>(b.intervals_evaluated);
    }
    span.count("intervals_evaluated", intervals);
    span.count("pool_tasks",
               static_cast<std::int64_t>(ThreadPool::tasks_dispatched() - pool_before));
  }
  result.rebuild_bound_index();

  // Stage kCosts: Eq. 7.1 is a trivial sum, always recomputed; the
  // dedicated ILP is only re-solved when a row it reads -- (resource, LB_r)
  // and (a, b, LB_{a,b}) -- actually changed (bounds plateau under many
  // deltas, so synthesis/annealing loops skip most solves).
  {
    ScopedSpan span(trace, stage_name(Stage::kCosts));
    result.shared_cost = shared_cost_bound(app, result.bounds);
    if (platform != nullptr) {
      reuse.replayed_dedicated_cost =
          prev != nullptr && prev->dedicated_cost.has_value() && !reuse.platform_changed &&
          !reuse.structure_changed && same_bound_rows(prev->bounds, result.bounds) &&
          same_joint_rows(prev->joint, result.joint);
      if (reuse.replayed_dedicated_cost) {
        result.dedicated_cost = prev->dedicated_cost;
        span.count("reused", 1);
      } else {
        result.dedicated_cost =
            options.joint_bounds
                ? dedicated_cost_bound_joint(app, *platform, result.bounds, result.joint)
                : dedicated_cost_bound(app, *platform, result.bounds);
        span.count("ilp_nodes", result.dedicated_cost->ilp_nodes);
      }
    }
    span.count("terms", static_cast<std::int64_t>(result.shared_cost.terms.size()));
  }

  // Certificate post-stage: restate the result as checkable facts, and
  // (under check_certificates) have the independent checker re-judge them
  // before the result is allowed out. Not a Stage -- it produces no
  // analysis values -- but it IS spanned, since emit+check can rival the
  // scan itself on small instances.
  if (options.emit_certificates || options.check_certificates) {
    ScopedSpan span(trace, "certificates");
    result.certificate = build_certificate(app, options, platform, result);
    if (options.check_certificates) {
      CheckReport report = check_certificate(*result.certificate, app, platform);
      if (!report.valid) throw CertificateCheckError(std::move(report));
      result.certificate_check = std::move(report);
      span.count("checked", 1);
    }
  }
  return result;
}

AnalysisResult run_pipeline(const Application& app, const AnalysisOptions& options,
                            const DedicatedPlatform* platform, const SourceMap* lines) {
  PipelineReuse cold;
  return run_pipeline(app, options, platform, cold, lines);
}

}  // namespace rtlb
