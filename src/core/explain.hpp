// Infeasibility certificates -- the designer-facing "why".
//
// The analysis can prove two kinds of impossibility, and both deserve a
// human-readable explanation rather than a bare boolean:
//
//  * WINDOW COLLAPSE (any system): a task's [E_i, L_i] window cannot hold
//    its computation time. The certificate walks the binding chain -- which
//    release/message path forces E_i, which deadline/message path forces
//    L_i -- so the designer sees the constraint cycle to relax.
//
//  * CAPACITY VIOLATION (a given system): some interval's mandatory demand
//    Theta(r, t1, t2) exceeds caps_r * (t2 - t1) (Section 6 read in
//    reverse). The certificate names the interval, the contributing tasks
//    and their minimum overlaps.
#pragma once

#include <string>
#include <vector>

#include "src/core/est_lct.hpp"
#include "src/core/lower_bound.hpp"
#include "src/sched/schedule.hpp"

namespace rtlb {

struct WindowCollapse {
  TaskId task = kInvalidTask;
  Time est = 0;
  Time lct = 0;
  /// Chain of task names from a binding source (release or deadline anchor)
  /// to `task`, forward for the EST side and backward for the LCT side.
  std::vector<std::string> est_chain;
  std::vector<std::string> lct_chain;
};

struct CapacityViolation {
  ResourceId resource = kInvalidResource;
  int capacity = 0;
  Time t1 = 0;
  Time t2 = 0;
  Time demand = 0;  // > capacity * (t2 - t1)
  /// (task, mandatory overlap) pairs with non-zero contribution.
  std::vector<std::pair<TaskId, Time>> contributions;
};

struct InfeasibilityReport {
  bool feasible_windows = true;   // false if any window collapsed
  bool feasible_capacity = true;  // false if any interval over-demands
  std::vector<WindowCollapse> collapses;
  std::vector<CapacityViolation> violations;

  bool any() const { return !feasible_windows || !feasible_capacity; }
};

/// Diagnose `app` in isolation (window collapses) and, when `caps` is
/// non-null, against a concrete shared system (capacity violations,
/// reported in resource/block order). The capacity scan is serial and reads
/// one lower-bound engine knob: opts.enable_pruning skips intervals that
/// cannot hold the block's worst excess. opts.num_threads and
/// opts.use_partitioning are ignored -- the certificate search is always
/// block-local.
InfeasibilityReport diagnose(const Application& app, const TaskWindows& windows,
                             const Capacities* caps = nullptr,
                             const LowerBoundOptions& opts = {});

/// Render the report as readable prose.
std::string explain(const Application& app, const InfeasibilityReport& report);

/// The binding constraint chain behind one task's E_i, as task ids: walk the
/// EST provenance backward (merged predecessors contribute their completion,
/// remote ones completion + message) until a release time anchors, and
/// return the chain source-first, ending at `i`. Shared by the
/// WindowCollapse certificates above and the lint dataflow pass
/// (src/lint/dataflow.hpp), which names the dominating chain per diagnostic.
std::vector<TaskId> binding_est_chain(const Application& app, const TaskWindows& windows,
                                      TaskId i);

/// Mirror for the LCT side: walk the successor whose send-deadline dominates
/// L_i until a deadline anchors. Returned starting at `i`, sink-last.
std::vector<TaskId> binding_lct_chain(const Application& app, const TaskWindows& windows,
                                      TaskId i);

}  // namespace rtlb
