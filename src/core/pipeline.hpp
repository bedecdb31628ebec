// The unified analysis pipeline: one typed, instrumented stage sequence
// shared by every driver.
//
// The paper's analysis is an explicitly staged computation -- EST/LCT
// merging (Figs. 2-3), partitioning (Fig. 4), per-resource LB_r
// maximization (Eq. 6.3), then cost bounds (Eqs. 7.1/7.2) -- and before
// this module existed the stage sequencing lived in three diverging places
// (cold analyze(), the AnalysisSession refresh, and their certificate
// glue), kept bit-identical by convention and test alone. run_pipeline()
// is now the ONLY place that sequences stages:
//
//   kLintGate    pre-flight gate (Application::validate + the absint
//                overflow proof at kOff, else the linter + the refusal
//                policy of lint_gate_refuses)
//   kWindows     EST/LCT under the model's merge oracle
//   kPartitions  per-resource window-disjoint blocks (Theorem 5)
//   kBounds      LB_r per resource (+ conjunctive joint rows if asked)
//   kCosts       Eq. 7.1 sum and, with a platform, the Section-7 ILP
//
// with certificate emit/check as a post-stage (not a Stage: it restates the
// result, it does not produce analysis values).
//
// Reuse is delegated to a StageCache: before recomputing a stage the
// pipeline offers the cache a chance to serve the previous artifact, and
// after recomputing it reports the fresh value so the cache can revalidate
// downstream decisions by VALUE (a recompute that changed nothing keeps
// every later stage reusable). The default StageCache caches nothing --
// that is the cold analyze() path; AnalysisSession passes its
// dirty-flag/value-comparison cache. Either way the computed values are
// bit-identical by construction: a cache may only serve an artifact that is
// value-equal to what the recompute would produce.
//
// Instrumentation: when AnalysisOptions::trace names a Trace, the run
// records a "pipeline" root span with one child span per stage and work
// counters (tasks, blocks, intervals evaluated, block-cache hits,
// thread-pool tasks dispatched, ILP nodes). Stage names are exported via
// stage_names() so tools can check emitted traces exhaustively.
#pragma once

#include <optional>
#include <span>

#include "src/core/analysis.hpp"

namespace rtlb {

/// The five pipeline stages, in execution order.
enum class Stage {
  kLintGate = 0,
  kWindows,
  kPartitions,
  kBounds,
  kCosts,
};

inline constexpr int kNumStages = 5;

/// Stable stage name ("lint_gate", "windows", "partitions", "bounds",
/// "costs") -- also the span names an instrumented run emits.
const char* stage_name(Stage stage);

/// All five names in Stage order, for tools that validate traces.
std::span<const char* const> stage_names();

// -- Per-stage artifact structs. Each stage's output, exactly as it lands
// -- on the AnalysisResult; the structs exist so caches and tests can talk
// -- about one stage's product without carrying a whole result around.

struct LintGateArtifact {
  /// Diagnostics recorded on the result; nullopt at LintLevel::kOff.
  std::optional<LintResult> lint;
};

struct WindowsArtifact {
  TaskWindows windows;
  /// True when a StageCache established the windows are value-identical to
  /// the previous query's (served verbatim OR recomputed equal), which is
  /// what downstream reuse decisions key on.
  bool unchanged = false;
};

struct PartitionsArtifact {
  std::vector<ResourcePartition> partitions;
};

struct BoundsArtifact {
  std::vector<ResourceBound> bounds;
  std::vector<JointBound> joint;  ///< empty unless options.joint_bounds
};

struct CostsArtifact {
  SharedCostBound shared;
  std::optional<DedicatedCostBound> dedicated;
};

/// Per-stage reuse policy. run_pipeline() consults it before and after each
/// stage; every default answers "nothing cached", which is the cold path.
///
/// CONTRACT: a cache may only return an artifact that is value-equal to
/// what the stage recompute would produce for the current inputs -- reuse
/// must be a proof, not a heuristic (AnalysisSession derives its proofs
/// from dirty flags plus value comparison; see src/core/session.hpp).
class StageCache {
 public:
  virtual ~StageCache() = default;

  /// kLintGate: serve a full LintResult -- bit-identical to a fresh
  /// lint(app, platform) -- assembled from cached per-pass slices, or
  /// nullopt to run the linter cold. Only consulted at lint levels other
  /// than kOff (kOff never lints); the refusal policy is applied to the
  /// served result exactly as to a fresh one.
  virtual std::optional<LintResult> serve_lint(const Application& app,
                                               const DedicatedPlatform* platform) {
    (void)app;
    (void)platform;
    return std::nullopt;
  }

  /// kWindows: previous windows to serve verbatim, or nullptr to recompute.
  virtual const TaskWindows* cached_windows() { return nullptr; }

  /// Called after a windows recompute with the fresh value; return true
  /// when it is value-equal to the previous query's windows (and the task
  /// structure is unchanged), re-enabling downstream reuse.
  virtual bool revalidate_windows(const TaskWindows& fresh) {
    (void)fresh;
    return false;
  }

  /// kPartitions / kBounds: previous artifacts, offered only the pipeline's
  /// windows_unchanged verdict (a cache must still fold in its own
  /// structure/demand knowledge).
  virtual const std::vector<ResourcePartition>* cached_partitions(bool windows_unchanged) {
    (void)windows_unchanged;
    return nullptr;
  }
  virtual const std::vector<ResourceBound>* cached_bounds(bool windows_unchanged) {
    (void)windows_unchanged;
    return nullptr;
  }
  virtual const std::vector<JointBound>* cached_joint(bool windows_unchanged) {
    (void)windows_unchanged;
    return nullptr;
  }

  /// Block-level memo table for bound recomputes; null means cold (the
  /// engine builds no block keys and scans every block). Stage-level reuse
  /// above skips the scan entirely; this reuses individual untouched blocks
  /// when the stage does rescan.
  virtual BlockScanCache* block_cache() { return nullptr; }

  /// kCosts: previous dedicated solve, offered the freshly computed rows it
  /// would read -- return it only when those match the previous query's.
  /// Only consulted when a platform is present.
  virtual const DedicatedCostBound* cached_dedicated_cost(
      const std::vector<ResourceBound>& bounds, const std::vector<JointBound>& joint) {
    (void)bounds;
    (void)joint;
    return nullptr;
  }

  /// Accounting hook: called once per stage decision (kLintGate always
  /// misses -- the gate is never cached; kCosts only reports when a
  /// dedicated solve decision was made, matching the historical counters).
  virtual void record(Stage stage, bool hit) {
    (void)stage;
    (void)hit;
  }

  /// Accounting for the conjunctive joint rows (a sub-product of kBounds);
  /// called only when options.joint_bounds is set.
  virtual void record_joint(bool hit) { (void)hit; }
};

/// The kLintGate refusal policy -- the ONE place the four LintLevel
/// policies live (analyze(), AnalysisSession, rtlb_lint, and rtlb_check all
/// judge through this): kOff never refuses here (validate() handles it),
/// kReport refuses structural (RTLB-E0xx) errors only -- the same refusal
/// set as Application::validate() -- kErrors refuses any error-level
/// finding, kWarnings refuses warnings too.
bool lint_gate_refuses(const LintResult& result, LintLevel level);

/// Run the kLintGate stage standalone, exactly as the pipeline does:
/// Application::validate() at kOff (throws ModelError), plus a ModelError
/// naming RTLB-E310 when absint proves the windows overflow; otherwise lint the
/// instance and throw LintGateError when lint_gate_refuses(). `lines` (may
/// be null) attributes findings to source lines, as rtlb_lint does.
LintGateArtifact run_lint_gate(const Application& app, const DedicatedPlatform* platform,
                               LintLevel level, const SourceMap* lines = nullptr);

/// Run all stages (plus the certificate post-stage) through `cache`,
/// tracing into options.trace when set. This is the only function in the
/// library that sequences compute_windows / partition_all /
/// all_resource_bounds / *cost_bound* / joint_lower_bounds.
AnalysisResult run_pipeline(const Application& app, const AnalysisOptions& options,
                            const DedicatedPlatform* platform, StageCache& cache);

/// Cold run: an empty StageCache (what analyze() forwards to).
AnalysisResult run_pipeline(const Application& app, const AnalysisOptions& options = {},
                            const DedicatedPlatform* platform = nullptr);

}  // namespace rtlb
