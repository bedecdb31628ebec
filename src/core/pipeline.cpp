#include "src/core/pipeline.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "src/common/thread_pool.hpp"
#include "src/obs/trace.hpp"
#include "src/verify/emit.hpp"

namespace rtlb {

namespace {

constexpr const char* const kStageNames[kNumStages] = {
    "lint_gate", "windows", "partitions", "bounds", "costs",
};

/// The kReport criterion at kOff, which runs no lint: windows that absint
/// proves overflow Time for every merge decision (RTLB-E310) are refused
/// before the EST/LCT recurrences could compute them (signed-overflow UB).
void refuse_proved_overflow(const Application& app, const DedicatedPlatform* platform) {
  const AbsIntResult absint = abstract_interpret(app, platform);
  if (absint.verdict != AbsVerdict::kMustOverflow) return;
  throw ModelError("RTLB-E310: " + std::string(absint.worst_is_est ? "EST" : "LCT") +
                   " of task '" + app.task(absint.worst_task).name +
                   "' overflows Time for every merge decision");
}

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
      // proved window overflow (RTLB-E310): computing those windows would
      // be signed-overflow UB. Other semantic errors (window collapse,
      // uncoverable tasks) are recorded but analyzed.
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
                               LintLevel level, const SourceMap* lines) {
  LintGateArtifact gate;
  if (level == LintLevel::kOff) {
    app.validate();
    refuse_proved_overflow(app, platform);
    return gate;
  }
  LintResult result = lint(app, platform, lines);
  if (lint_gate_refuses(result, level)) throw LintGateError(std::move(result));
  gate.lint = std::move(result);
  return gate;
}

AnalysisResult run_pipeline(const Application& app, const AnalysisOptions& options,
                            const DedicatedPlatform* platform, StageCache& cache) {
  const bool dedicated = options.model == SystemModel::Dedicated;
  if (dedicated && platform == nullptr) {
    throw ModelError("analyze: dedicated model requires a platform");
  }

  Trace* trace = options.trace;
  ScopedSpan run_span(trace, "pipeline");

  AnalysisResult result;
  result.lb_options = options.lower_bound;

  // Stage kLintGate: batch-diagnose the instance before spending bound-scan
  // time on it. A cache may serve the whole LintResult from per-pass slices
  // (AnalysisSession keys each pass on its dirty flags); the refusal policy
  // runs on the served result exactly as on a fresh one, so refusals always
  // reflect the current model. A fresh lint hands over the windows it
  // computed when they are the ones kWindows would compute (same oracle).
  std::optional<TaskWindows> lint_windows;
  {
    ScopedSpan span(trace, stage_name(Stage::kLintGate));
    if (options.lint_level == LintLevel::kOff) {
      app.validate();
      // Windows a cache serves were computed safely before.
      if (cache.cached_windows() == nullptr) refuse_proved_overflow(app, platform);
      cache.record(Stage::kLintGate, false);
    } else {
      std::optional<LintResult> served = cache.serve_lint(app, platform);
      const bool from_cache = served.has_value();
      LintResult fresh =
          from_cache ? std::move(*served) : lint(app, platform, nullptr, {}, &lint_windows);
      if (lint_gate_refuses(fresh, options.lint_level)) {
        throw LintGateError(std::move(fresh));
      }
      if (dedicated != (platform != nullptr)) lint_windows.reset();  // other oracle
      span.count("diagnostics", static_cast<std::int64_t>(fresh.diagnostics.size()));
      result.lint = std::move(fresh);
      cache.record(Stage::kLintGate, from_cache);
    }
  }

  // Stage kWindows: EST/LCT under the model's mergeability notion. A cache
  // either serves the previous windows verbatim or, after a recompute,
  // rules on value equality -- the verdict every downstream reuse keys on.
  WindowsArtifact windows;
  {
    ScopedSpan span(trace, stage_name(Stage::kWindows));
    if (const TaskWindows* cached = cache.cached_windows()) {
      windows.windows = *cached;
      windows.unchanged = true;
      cache.record(Stage::kWindows, true);
      span.count("reused", 1);
    } else {
      // Same thread knob as the bound engine; the windows are bit-identical
      // at any worker count, so the lint's windows and the cache verdict
      // below are unaffected by it.
      const int threads = options.lower_bound.num_threads;
      if (lint_windows) {
        windows.windows = std::move(*lint_windows);
        span.count("from_lint", 1);
      } else if (dedicated) {
        DedicatedMergeOracle oracle(*platform);
        windows.windows = compute_windows(app, oracle, threads);
      } else {
        SharedMergeOracle oracle;
        windows.windows = compute_windows(app, oracle, threads);
      }
      windows.unchanged = cache.revalidate_windows(windows.windows);
      cache.record(Stage::kWindows, false);
    }
    span.count("tasks", static_cast<std::int64_t>(app.num_tasks()));
  }
  result.windows = std::move(windows.windows);

  // Stage kPartitions: a pure function of the task sets and windows
  // (recorded even when the bound evaluation is asked to run unpartitioned,
  // so callers can always inspect them).
  PartitionsArtifact partitions;
  {
    ScopedSpan span(trace, stage_name(Stage::kPartitions));
    if (const auto* cached = cache.cached_partitions(windows.unchanged)) {
      partitions.partitions = *cached;
      cache.record(Stage::kPartitions, true);
      span.count("reused", 1);
    } else {
      partitions.partitions = partition_all(app, result.windows);
      cache.record(Stage::kPartitions, false);
    }
    std::int64_t blocks = 0;
    for (const ResourcePartition& p : partitions.partitions) {
      blocks += static_cast<std::int64_t>(p.blocks.size());
    }
    span.count("resources", static_cast<std::int64_t>(partitions.partitions.size()));
    span.count("blocks", blocks);
  }
  result.partitions = std::move(partitions.partitions);

  // Stage kBounds: LB_r for every r in RES (+ the conjunctive extension
  // rows), scanned over the kPartitions artifact. Stage-level reuse replays
  // the whole vector; otherwise a block-level cache (when the StageCache
  // carries one) reuses every partition block the delta left
  // value-unchanged (Theorem 5 independence), and only missed blocks are
  // scanned.
  BoundsArtifact bounds;
  {
    ScopedSpan span(trace, stage_name(Stage::kBounds));
    const std::uint64_t pool_before = ThreadPool::tasks_dispatched();
    if (const auto* cached = cache.cached_bounds(windows.unchanged)) {
      bounds.bounds = *cached;
      cache.record(Stage::kBounds, true);
      span.count("reused", 1);
    } else {
      BlockScanCache* block_cache = cache.block_cache();
      const std::uint64_t hits = block_cache ? block_cache->hits() : 0;
      const std::uint64_t misses = block_cache ? block_cache->misses() : 0;
      bounds.bounds = all_resource_bounds(app, result.windows, result.partitions,
                                          options.lower_bound, block_cache);
      cache.record(Stage::kBounds, false);
      if (block_cache != nullptr) {
        span.count("block_cache_hits", static_cast<std::int64_t>(block_cache->hits() - hits));
        span.count("block_cache_misses",
                   static_cast<std::int64_t>(block_cache->misses() - misses));
      }
    }
    if (options.joint_bounds) {
      if (const auto* cached = cache.cached_joint(windows.unchanged)) {
        bounds.joint = *cached;
        cache.record_joint(true);
      } else {
        bounds.joint = joint_lower_bounds(app, result.windows);
        cache.record_joint(false);
      }
    }
    std::int64_t intervals = 0;
    for (const ResourceBound& b : bounds.bounds) {
      intervals += static_cast<std::int64_t>(b.intervals_evaluated);
    }
    span.count("intervals_evaluated", intervals);
    span.count("pool_tasks",
               static_cast<std::int64_t>(ThreadPool::tasks_dispatched() - pool_before));
  }
  result.bounds = std::move(bounds.bounds);
  result.joint = std::move(bounds.joint);
  result.rebuild_bound_index();

  // Stage kCosts: Eq. 7.1 is a trivial sum, always recomputed; the
  // dedicated ILP is only re-solved when a row it reads actually changed
  // (bounds plateau under many deltas, so synthesis/annealing loops skip
  // most solves).
  CostsArtifact costs;
  {
    ScopedSpan span(trace, stage_name(Stage::kCosts));
    costs.shared = shared_cost_bound(app, result.bounds);
    if (platform != nullptr) {
      if (const DedicatedCostBound* cached =
              cache.cached_dedicated_cost(result.bounds, result.joint)) {
        costs.dedicated = *cached;
        cache.record(Stage::kCosts, true);
        span.count("reused", 1);
      } else {
        costs.dedicated =
            options.joint_bounds
                ? dedicated_cost_bound_joint(app, *platform, result.bounds, result.joint)
                : dedicated_cost_bound(app, *platform, result.bounds);
        cache.record(Stage::kCosts, false);
        span.count("ilp_nodes", costs.dedicated->ilp_nodes);
      }
    }
    span.count("terms", static_cast<std::int64_t>(costs.shared.terms.size()));
  }
  result.shared_cost = std::move(costs.shared);
  result.dedicated_cost = std::move(costs.dedicated);

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
                            const DedicatedPlatform* platform) {
  StageCache cold;
  return run_pipeline(app, options, platform, cold);
}

}  // namespace rtlb
