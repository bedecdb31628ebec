// EXTENSION (not in the paper): conjunctive lower bounds.
//
// Section 6 bounds each processor type / resource in isolation. But a task
// that needs BOTH r and s occupies, for its whole execution, something that
// provides both -- in the dedicated model, a node carrying both (and a node
// runs one task at a time). Applying the same interval-density analysis to
// ST_{r AND s} = { i : task i uses r and s } yields LB_{r,s}, a lower bound
// on the number of PAIR-CAPABLE NODES, which adds covering rows
//
//     sum over { n : gamma_nr > 0 and gamma_ns > 0 } x_n  >=  LB_{r,s}
//
// to the Section-7 program. These rows are not implied by the per-resource
// rows whenever a pair's supply is split across node types (e.g. menu
// {P,a}, {P,b}, {P,a,b}: two concurrent {a,b}-tasks force two {P,a,b}
// nodes, but the per-resource rows are satisfied by one of each type).
// The proof of validity is the paper's own Theorems 3-5 applied verbatim to
// the restricted task set.
#pragma once

#include <vector>

#include "src/core/cost_bound.hpp"
#include "src/core/est_lct.hpp"
#include "src/core/lower_bound.hpp"
#include "src/model/application.hpp"

namespace rtlb {

struct JointBound {
  /// The conjunction (a < b); either may be a processor type.
  ResourceId a = kInvalidResource;
  ResourceId b = kInvalidResource;
  /// Minimum number of co-located (a AND b) slots any feasible system needs.
  std::int64_t bound = 0;
  /// Witness interval, as in ResourceBound.
  Time witness_t1 = 0;
  Time witness_t2 = 0;

  bool operator==(const JointBound&) const = default;
};

/// Compute LB_{a,b} for every pair of RES members some task uses together.
/// Pairs whose bound does not exceed 0 are omitted.
std::vector<JointBound> joint_lower_bounds(const Application& app, const TaskWindows& windows);

/// The Section-7 dedicated cost bound with the conjunctive rows added.
/// Always >= dedicated_cost_bound's result (more constraints can only raise
/// the optimum); equal when the pair rows are implied.
DedicatedCostBound dedicated_cost_bound_joint(const Application& app,
                                              const DedicatedPlatform& platform,
                                              const std::vector<ResourceBound>& bounds,
                                              const std::vector<JointBound>& joint);

}  // namespace rtlb
