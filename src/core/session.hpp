// Memoized repeated-query analysis (the AnalysisSession).
//
// Every repeated-query driver in the repo -- the sensitivity sweeps, the
// menu variants, the synthesis search, annealing -- perturbs one scalar and
// re-runs the four-step pipeline. A cold analyze() recomputes everything;
// an AnalysisSession recomputes only what the delta invalidated:
//
//   stage          inputs (the fingerprint)                 reused when
//   -----          ------------------------                 -----------
//   lint gate      app + platform + lint_level              never (a fresh
//                                                           lint hands its
//                                                           windows on)
//   EST/LCT        comp, release, deadline, messages, DAG,  never (the lint's
//                  model (+ platform when Dedicated)        or recomputed;
//                                                           compared by value)
//   partitions     task sets + window VALUES                windows content-
//                                                           equal, structure
//                                                           unchanged
//   block scans    per-block (est, lct, comp, preemptive)   value-equal block
//                  tuples -- task identity excluded         in BlockScanCache
//   joint bounds   windows + demand inputs + structure      all unchanged
//   shared cost    bounds (recomputed, trivial)             --
//   dedicated ILP  platform + structure + (resource, bound) all unchanged
//                  rows + joint rows
//
// Two mechanisms make the reuse exact rather than heuristic. Dirty FLAGS
// (set by the mutators, with no-op deltas detected and ignored) decide what
// to recompute; value COMPARISON decides what the recomputation actually
// changed -- e.g. a deadline delta always recomputes the windows, but if
// the new windows are value-equal the partitions, bounds, and joint rows
// are reused verbatim. The block cache goes further: its keys are the exact
// per-task geometry, so a hit is a proof of equality (see
// lower_bound.hpp::BlockScanCache) and even a query that changes SOME
// windows reuses every block it left untouched -- Theorem 5 makes that
// sound, since a block's contribution depends on nothing outside it.
//
// Every reuse path is therefore bit-identical to a cold analyze() by
// construction; set_verify(true) (or building with RTLB_SESSION_VERIFY, or
// setting the environment variable of the same name) additionally
// cross-checks every query against a cold analyze() and aborts on any
// mismatch. The property test (tests/test_session.cpp) drives randomized
// delta sequences through both paths.
//
// The session does not sequence stages itself: a non-hit query runs
// run_pipeline() (src/core/pipeline.hpp) with a PipelineReuse value
// holding the previous result, the dirty flags and the block cache. The
// pipeline applies the rules of the table above next to the stages they
// skip -- the same stage code, in the same order, as a cold analyze() --
// and reports which stages it replayed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/core/analysis.hpp"

namespace rtlb {

/// Per-stage reuse counters of one AnalysisSession, folded from what each
/// run_pipeline() call reports it replayed (src/core/pipeline.hpp) -- every
/// stage of every completed non-hit query records exactly one hit or miss;
/// a refused query records nothing. "Hit" means the stage's previous output
/// was served without recomputation (for blocks: served from the
/// BlockScanCache); a query that short-circuits entirely (query_hits) does
/// not also count per-stage hits.
struct SessionStats {
  std::uint64_t queries = 0;      ///< analyze() calls that completed
  std::uint64_t query_hits = 0;   ///< ... of which returned the cached result

  /// kLintGate runs of completed non-hit queries. Every gate run lints
  /// fresh; nothing of it is reused.
  std::uint64_t gate_runs = 0;

  /// Always zero: every gate run lints fresh, with no per-pass reuse.
  /// Retained (with their session_stats_json keys) because perfbench's
  /// session_deltas workload reads them.
  std::uint64_t lint_pass_hits = 0;
  std::uint64_t lint_pass_misses = 0;

  /// Always zero: every query computes its windows (or takes the lint's).
  /// Retained with its session_stats_json key, like lint_pass_hits, because
  /// perfbench's session_deltas workload reads it.
  std::uint64_t window_hits = 0;
  std::uint64_t window_misses = 0;  ///< kWindows runs, one per non-hit query

  std::uint64_t partition_hits = 0;  ///< kPartitions reused (windows value-equal)
  std::uint64_t partition_misses = 0;

  std::uint64_t bound_hits = 0;    ///< kBounds whole-stage replays
  std::uint64_t bound_misses = 0;  ///< ... vs stage recomputes (which may
                                   ///< still reuse individual blocks below)

  std::uint64_t block_hits = 0;    ///< BlockScanCache hits (per block)
  std::uint64_t block_misses = 0;  ///< ... and misses (scans actually run)

  std::uint64_t joint_hits = 0;    ///< conjunctive joint rows reused
  std::uint64_t joint_misses = 0;  ///< ... vs recomputed (joint_bounds only)

  std::uint64_t cost_hits = 0;    ///< dedicated ILP solves skipped
  std::uint64_t cost_misses = 0;  ///< dedicated ILP solves run

  std::uint64_t verified = 0;  ///< queries cross-checked against cold analyze()
};

/// A stateful wrapper over (Application, AnalysisOptions, platform) serving
/// analyze()-equivalent queries with memoization. Mutate through the
/// set_* deltas, then call analyze(); results are bit-identical to
/// rtlb::analyze(app(), options(), platform()) at every query, including
/// thrown ModelError / LintGateError. NOT thread-safe; drivers that fan
/// sweep points over a pool use one session per worker.
class AnalysisSession {
 public:
  /// The session owns copies of everything it wraps, so callers may mutate
  /// or destroy their originals freely.
  explicit AnalysisSession(Application app, AnalysisOptions options = {},
                           const DedicatedPlatform* platform = nullptr);

  /// Recurrent front door: lint `workload`'s templates (throwing
  /// LintGateError on any RTLB-E5xx finding, exactly like
  /// analyze(catalog, workload, ...)), lower it over the shared hyperperiod,
  /// and wrap the lowered Application. Sessions built this way additionally
  /// accept the template-level deltas below; the catalog is copied so the
  /// caller's may go away.
  AnalysisSession(const ResourceCatalog& catalog, Workload workload,
                  AnalysisOptions options = {}, const DedicatedPlatform* platform = nullptr);

  const Application& app() const { return app_; }
  const AnalysisOptions& options() const { return options_; }
  const DedicatedPlatform* platform() const {
    return platform_ ? &*platform_ : nullptr;
  }

  // -- Deltas. Each detects no-ops (new value == current) and invalidates
  // -- nothing in that case, so a sweep point at factor 1.0 is a query hit.

  void set_comp(TaskId i, Time comp);
  void set_release(TaskId i, Time release);
  void set_deadline(TaskId i, Time deadline);
  void set_preemptive(TaskId i, bool preemptive);
  /// Resize the message on an existing edge from -> to (ModelError if the
  /// edge does not exist; deltas never change the DAG shape).
  void set_message(TaskId from, TaskId to, Time msg_size);
  /// Swap the platform menu (nullptr removes it). Invalidates the windows
  /// only under the dedicated model, where the merge oracle consults it.
  void set_platform(const DedicatedPlatform* platform);
  /// Replace the wrapped application wholesale. Invalidates every stage --
  /// except the block cache, whose keys are task-identity-free and so
  /// survive even regeneration of a value-similar workload.
  void replace_application(Application app);

  // -- Template-level deltas (workload sessions only; ModelError otherwise).
  // -- Each mutates the template, re-lints it (LintGateError on E5xx), and
  // -- re-lowers. The lowered instance is byte-compared against the current
  // -- one: a no-op delta (e.g. a period set to its current value, or a
  // -- change that lowers identically) invalidates nothing, and a real
  // -- change goes through replace_application() -- so the block cache still
  // -- serves every activation slot the delta left untouched, and the next
  // -- analyze() is byte-identical to a cold re-analysis of the mutated
  // -- workload by construction.

  /// The wrapped template set; nullptr for sessions over a flat Application.
  const Workload* workload() const { return workload_ ? &*workload_ : nullptr; }

  /// Change a transaction's period (minimum inter-arrival for sporadic).
  void set_transaction_period(const std::string& transaction, Time period);
  /// Change a transaction's release offset.
  void set_transaction_offset(const std::string& transaction, Time offset);
  /// Change one template task's computation time (every activation follows).
  void set_template_comp(const std::string& transaction, const std::string& task, Time comp);

  /// Serve the query. The reference is valid until the next mutation or
  /// query. Throws exactly what a cold analyze() would (dedicated model
  /// without platform, validate()/lint gate refusals).
  const AnalysisResult& analyze();

  /// Cross-check every query against a cold analyze() (bit-for-bit, by
  /// AnalysisResult::operator==). Defaults to on when built with
  /// RTLB_SESSION_VERIFY or run with the RTLB_SESSION_VERIFY environment
  /// variable set to a non-empty value other than "0".
  void set_verify(bool verify) { verify_ = verify; }
  bool verify() const { return verify_; }

  /// Reuse counters (block hits/misses reflect the engine cache).
  SessionStats stats() const;

 private:
  void require_valid_task(TaskId i) const;
  void mark_timing_changed();
  Transaction& require_transaction(const std::string& name);
  void relower_workload();

  /// Workload sessions own their catalog (stable address for re-lowering);
  /// flat sessions leave both empty. Declared before app_: the delegating
  /// constructor lowers against *catalog_.
  std::unique_ptr<ResourceCatalog> catalog_;
  std::optional<Workload> workload_;
  /// serialize_instance() bytes of the current lowered application -- the
  /// no-op detector for template deltas.
  std::string lowered_bytes_;

  Application app_;
  AnalysisOptions options_;
  std::optional<DedicatedPlatform> platform_;

  // Dirty flags since the last completed query.
  bool windows_dirty_ = true;    ///< EST/LCT inputs changed
  bool demand_dirty_ = true;     ///< comp / preemptive changed (Theta inputs)
  bool structure_dirty_ = true;  ///< task sets / DAG / catalog ids changed
  bool platform_dirty_ = true;   ///< the menu itself changed
  bool have_result_ = false;     ///< result_ answers the current inputs

  AnalysisResult result_;
  BlockScanCache block_cache_;
  bool verify_ = false;
  SessionStats stats_;
};

}  // namespace rtlb
