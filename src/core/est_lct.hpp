// Step 1 of the lower-bound analysis: earliest start times (EST, Figure 3)
// and latest completion times (LCT, Figure 2) under merging.
//
// For every task the algorithms greedily decide which immediate
// predecessors/successors would be co-located with it (avoiding the message
// latency m_ij at the price of sequential execution), and return the loosest
// window [E_i, L_i] any feasible schedule can give the task. Theorems 1 and 2
// prove E_i is a lower bound on the start and L_i an upper bound on the
// completion of task i in ANY schedule meeting all constraints.
//
// ENGINE. compute_windows() runs both figures over arena-backed flat
// structures: the task attributes the recurrences read (C_i, r_i, d_i and
// the per-edge message sizes) are snapshotted once into contiguous SoA
// arrays, each candidate's lms/emr term is evaluated exactly once (with a
// suffix-min/max array replacing the quadratic "remaining candidates" rescan
// of the figures as printed), and the greedy merge loop maintains its
// lst(G)/ect(M) packing INCREMENTALLY -- successive candidate sets differ by
// one task, so each step splices the new task into the kept packing order
// and refolds only the affected suffix instead of re-sorting and re-packing
// the whole set. All scratch lives in one arena reused across tasks and
// candidate sets; the steady-state merge search allocates nothing. The
// engine is one serial sweep: EST in topological order, then LCT in reverse.
// A task needs its neighbours' final values, so threads could only share
// rounds of tasks at equal depth; measured, that pays only on thousands of
// tasks in a few wide layers and loses several-fold on deep, long-path
// DAGs. Threads pay in the bound engine's interval scan
// (src/core/lower_bound.hpp).
//
// RANGE. compute_windows() is the one overflow guarantee for the windows:
// every lms/emr term and packing fold is checked int64 arithmetic, and every
// endpoint it returns lies in [-kSafeTime, kSafeTime]. Otherwise it throws
// ModelError("RTLB-E310: EST|LCT of task '<name>' ...") for the first such
// task in sweep order -- topologically on the EST side, else
// reverse-topologically on the LCT side.
//
// Verification: compute_windows_reference() preserves the original
// direct-from-the-figures implementation. Building with
// -DRTLB_WINDOWS_REFERENCE=ON (or setting the RTLB_WINDOWS_REFERENCE
// environment variable) cross-checks every compute_windows() call against it
// field for field -- the test-only tripwire for the flattened engine.
#pragma once

#include <span>
#include <vector>

#include "src/core/mergeable.hpp"
#include "src/model/application.hpp"

namespace rtlb {

/// Result of the EST/LCT pass over a whole application.
struct TaskWindows {
  /// E_i: earliest start times, indexed by TaskId.
  std::vector<Time> est;
  /// L_i: latest completion times, indexed by TaskId.
  std::vector<Time> lct;
  /// M_i: predecessors merged with i when evaluating E_i (Table 1 column).
  std::vector<std::vector<TaskId>> merged_pred;
  /// G_i: successors merged with i when evaluating L_i (Table 1 column).
  std::vector<std::vector<TaskId>> merged_succ;

  /// Width of task i's window; a negative value proves infeasibility.
  ///
  /// Cannot overflow on windows compute_windows() returned for a validated
  /// model: -2 kSafeTime <= slack <= 2 kSafeTime, and 2 kSafeTime fits in
  /// Time. Every endpoint lies in [-kSafeTime, kSafeTime] (RANGE above), so
  /// lct - est lies in twice that range, and C_i > 0 (RTLB-E001) keeps the
  /// slack below it. Messages are >= 0 (add_edge refuses others), so a
  /// neighbour pins one side of the subtraction of C_i inside the safe
  /// range: with a successor j, E_j >= E_i + C_i whether or not i merges
  /// into j, so E_i + C_i <= kSafeTime; with a predecessor p,
  /// L_p <= L_i - C_i, so L_i - C_i >= -kSafeTime. Either way
  /// slack >= -2 kSafeTime. A task with no neighbours has
  /// [E_i, L_i] = [r_i, d_i], and validation refuses d_i - r_i < C_i
  /// (RTLB-E008/E009), so its slack is >= 0.
  Time slack(const Application& app, TaskId i) const {
    return lct[i] - est[i] - app.task(i).comp;
  }

  /// Exact value equality over every field -- what session revalidation and
  /// the reference cross-check compare.
  bool operator==(const TaskWindows&) const = default;
};

/// lst(A) (Sec 4.1): latest time a single processor/node could *start* the
/// sequential execution of `tasks`, each completing by its LCT. `tasks` may
/// be in any order; must be non-empty.
Time latest_start_of_set(const Application& app, const std::vector<Time>& lct,
                         std::span<const TaskId> tasks);

/// ect(A) (Sec 4.2): earliest time a single processor/node could *complete*
/// the sequential execution of `tasks`, each starting no earlier than its
/// EST. `tasks` may be in any order; must be non-empty.
Time earliest_completion_of_set(const Application& app, const std::vector<Time>& est,
                                std::span<const TaskId> tasks);

/// Run Figures 2 and 3 over the whole application (EST in topological order,
/// then LCT in reverse). Throws ModelError naming RTLB-E310 when an endpoint
/// would leave [-kSafeTime, kSafeTime] (see RANGE above). The `int` is
/// ignored: the sweep is serial. It is kept for the benchmark's windows
/// replay (perfbench/replay.cpp), its last user.
TaskWindows compute_windows(const Application& app, const MergeOracle& oracle, int = 1);

/// The same under the model's merge oracle: DedicatedMergeOracle over
/// `platform` when one is given, else SharedMergeOracle.
TaskWindows compute_windows(const Application& app, const DedicatedPlatform* platform);

/// Either of the above over `order`, the topological order of app.dag()
/// that Dag::topological_order() returns, computed once by the caller (the
/// linter hands its one order to every consumer). The two overloads above
/// compute it -- throwing ModelError on a cycle -- and delegate here.
TaskWindows compute_windows(const Application& app, const MergeOracle& oracle,
                            std::span<const TaskId> order);
TaskWindows compute_windows(const Application& app, const DedicatedPlatform* platform,
                            std::span<const TaskId> order);

/// The original per-merge-churn implementation, kept verbatim as the
/// reference for the flattened engine. Test/verification use only (see the
/// RTLB_WINDOWS_REFERENCE flag above); always serial.
TaskWindows compute_windows_reference(const Application& app, const MergeOracle& oracle);

/// Brute-force references used by the tests: evaluate Equations 4.1/4.5 over
/// EVERY mergeable subset A of successors/predecessors and take the best.
/// Exponential; only for small fan-in/out.
Time lct_exhaustive(const Application& app, const MergeOracle& oracle,
                    const std::vector<Time>& lct, TaskId i);
Time est_exhaustive(const Application& app, const MergeOracle& oracle,
                    const std::vector<Time>& est, TaskId i);

}  // namespace rtlb
