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
//   kLintGate    pre-flight gate, run_lint_gate (Application::validate at
//                kOff, else a fresh lint + the refusal policy of
//                lint_gate_refuses)
//   kWindows     EST/LCT under the model's merge oracle; refuses windows
//                outside the safe Time range itself (RTLB-E310)
//   kPartitions  per-resource window-disjoint blocks (Theorem 5)
//   kBounds      LB_r per resource (+ conjunctive joint rows if asked)
//   kCosts       Eq. 7.1 sum and, with a platform, the Section-7 ILP
//
// with certificate emit/check as a post-stage (not a Stage: it restates the
// result, it does not produce analysis values).
//
// Reuse is described by a PipelineReuse value: the previous result, what
// may have changed since (the session's dirty flags), and a block memo.
// The windows are always computed (or taken from the lint) and compared to
// the previous ones by VALUE; equal windows, together with the flags, let
// the later stages replay the previous products. The default value reuses
// nothing -- that is the cold analyze() path; AnalysisSession passes its
// flags. Either way the computed values are bit-identical by construction:
// a stage only replays a product value-equal to what it would recompute.
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

/// The kLintGate stage's product: run_lint_gate() returns it, and
/// run_pipeline() records the lint on the result and hands the windows to
/// kWindows.
struct LintGateArtifact {
  /// Diagnostics recorded on the result; nullopt at LintLevel::kOff.
  std::optional<LintResult> lint;
  /// The EST/LCT windows the lint computed (dedicated merge oracle iff a
  /// platform was given); nullopt at kOff, on a structurally broken model,
  /// or when compute_windows() refused them as out of range (RTLB-E310).
  std::optional<TaskWindows> windows;
};

/// What a repeated query may take over from the previous one, and what it
/// took. AnalysisSession fills the inputs from its dirty flags; the default
/// value reuses nothing, which is the cold path. run_pipeline() applies
/// every reuse rule next to the stage it skips, and each rule is a proof,
/// not a heuristic: a replayed product is value-equal to what the stage
/// would recompute for the current inputs.
struct PipelineReuse {
  /// The previous completed result of the same session; null reuses nothing.
  const AnalysisResult* prev = nullptr;
  /// What may have changed since `prev`.
  bool structure_changed = true;  ///< task sets, DAG, catalog ids
  bool demand_changed = true;     ///< C_i or preemptive (the Theta inputs)
  bool platform_changed = true;   ///< the node-type menu
  /// Block memo for bound rescans (Theorem 5); null scans every block.
  BlockScanCache* blocks = nullptr;

  /// Set by run_pipeline(): the products it replayed from `prev`.
  bool replayed_partitions = false;
  bool replayed_bounds = false;
  bool replayed_joint = false;
  bool replayed_dedicated_cost = false;
};

/// The kLintGate refusal policy -- the ONE place the four LintLevel
/// policies live (analyze(), AnalysisSession, rtlb_lint, and rtlb_check all
/// judge through this): kOff never refuses here (validate() handles it),
/// kReport refuses structural (RTLB-E0xx) errors -- the same refusal set as
/// Application::validate() -- plus a proved window overflow (RTLB-E310),
/// kErrors refuses any error-level finding, kWarnings refuses warnings too.
bool lint_gate_refuses(const LintResult& result, LintLevel level);

/// The kLintGate stage -- run_pipeline() calls exactly this, and so does
/// any tool that gates standalone: Application::validate() at kOff (throws
/// ModelError); otherwise lint the instance fresh and throw LintGateError
/// when lint_gate_refuses(). `lines` (may be null) attributes findings to
/// source lines, as rtlb_lint does. Windows out of range are refused by
/// kWindows (compute_windows() throws ModelError naming RTLB-E310), so the
/// gate needs no overflow proof of its own.
LintGateArtifact run_lint_gate(const Application& app, const DedicatedPlatform* platform,
                               LintLevel level, const SourceMap* lines = nullptr);

/// Run all stages (plus the certificate post-stage), reusing what `reuse`
/// allows and recording what was replayed on it, tracing into
/// options.trace when set. This is the only function in the library that
/// sequences compute_windows / partition_all / all_resource_bounds /
/// *cost_bound* / joint_lower_bounds.
AnalysisResult run_pipeline(const Application& app, const AnalysisOptions& options,
                            const DedicatedPlatform* platform, PipelineReuse& reuse);

/// Cold run: reuses nothing (what analyze() forwards to).
AnalysisResult run_pipeline(const Application& app, const AnalysisOptions& options = {},
                            const DedicatedPlatform* platform = nullptr);

}  // namespace rtlb
