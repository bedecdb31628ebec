// Step 4: lower bounds on system cost (Section 7).
//
// Shared model: cost >= sum over r of CostR(r) * LB_r (Eq. 7.1).
// Dedicated model: minimize sum CostN(n) * x_n subject to the resource
// covering constraints sum_n x_n * gamma_nr >= LB_r and the hosting
// constraints sum_{n in eta_i} x_n >= 1, solved exactly as an ILP; the LP
// relaxation is also reported (a weaker but still valid bound, as the paper
// notes).
#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "src/core/lower_bound.hpp"
#include "src/lp/ilp.hpp"
#include "src/model/application.hpp"
#include "src/model/platform.hpp"

namespace rtlb {

struct SharedCostBound {
  Cost total = 0;
  /// (resource, LB_r, CostR(r)) terms of Eq. 7.1, in resource_set() order.
  struct Term {
    ResourceId resource;
    std::int64_t units;
    Cost unit_cost;

    bool operator==(const Term&) const = default;
  };
  std::vector<Term> terms;

  bool operator==(const SharedCostBound&) const = default;
};

SharedCostBound shared_cost_bound(const Application& app,
                                  const std::vector<ResourceBound>& bounds);

struct DedicatedCostBound {
  /// False if no assembly of node types can host every task (some eta_i is
  /// empty or the covering ILP is infeasible).
  bool feasible = false;
  /// Exact ILP optimum of the Section-7 program.
  Cost total = 0;
  /// x_n per node type, the ILP minimizer.
  std::vector<std::int64_t> node_counts;
  /// LP-relaxation value (weaker valid bound).
  double relaxation = 0;
  /// Branch-and-bound nodes used.
  std::int64_t ilp_nodes = 0;

  /// Every field exactly, with `relaxation` compared as the report renders
  /// it: any two non-finite values are equal (both print null), and 0 and
  /// -0 differ. The binding names every field, so adding one stops the
  /// build here until this comparison covers it.
  bool operator==(const DedicatedCostBound& o) const {
    [[maybe_unused]] const auto& [feasible_, total_, counts_, relaxation_, nodes_] = *this;
    const bool same_relaxation =
        std::isfinite(relaxation) || std::isfinite(o.relaxation)
            ? relaxation == o.relaxation && std::signbit(relaxation) == std::signbit(o.relaxation)
            : true;
    return feasible == o.feasible && total == o.total && node_counts == o.node_counts &&
           same_relaxation && ilp_nodes == o.ilp_nodes;
  }
};

DedicatedCostBound dedicated_cost_bound(const Application& app,
                                        const DedicatedPlatform& platform,
                                        const std::vector<ResourceBound>& bounds);

}  // namespace rtlb
