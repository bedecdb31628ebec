#include "src/verify/emit.hpp"

#include <algorithm>
#include <utility>

#include "src/core/overlap.hpp"
#include "src/lp/simplex.hpp"

namespace rtlb {

namespace {

/// Psi decomposition of a witness interval over `tasks` (zero terms omitted;
/// their absence never weakens the certified demand).
IntervalWitness make_witness(const Application& app, const TaskWindows& windows,
                             const std::vector<TaskId>& tasks, Time t1, Time t2) {
  IntervalWitness w;
  w.t1 = t1;
  w.t2 = t2;
  w.demand = 0;
  for (TaskId i : tasks) {
    const Time psi = overlap(app, windows, i, t1, t2);
    if (psi > 0) {
      w.terms.push_back({i, psi});
      w.demand += psi;
    }
  }
  return w;
}

/// The Eq. 7.2 constraint system in its canonical row order (mirrors
/// dedicated_cost_bound / dedicated_cost_bound_joint exactly). Returns false
/// after filling `cert` with the checkable infeasibility reason when a row
/// has no supplier.
bool build_program(const Application& app, const DedicatedPlatform& platform,
                   const AnalysisResult& result, bool joint_rows, LinearProgram& lp,
                   DedicatedCostCert& cert) {
  const std::size_t num_types = platform.num_node_types();
  if (num_types == 0) {
    cert.infeasible_reason = "no-node-types";
    return false;
  }
  lp.sense = LinearProgram::Sense::Minimize;
  lp.objective.resize(num_types);
  for (std::size_t n = 0; n < num_types; ++n) {
    lp.objective[n] = static_cast<double>(platform.node_type(n).cost);
  }
  for (const ResourceBound& b : result.bounds) {
    if (b.bound <= 0) continue;
    std::vector<double> row(num_types, 0.0);
    bool any = false;
    for (std::size_t n = 0; n < num_types; ++n) {
      const int units = platform.node_type(n).units_of(b.resource);
      if (units > 0) {
        row[n] = units;
        any = true;
      }
    }
    if (!any) {
      cert.infeasible_reason = "uncovered-resource";
      cert.detail_resource = b.resource;
      return false;
    }
    lp.add_constraint(std::move(row), LinearProgram::Relation::GreaterEq,
                      static_cast<double>(b.bound));
  }
  if (joint_rows) {
    for (const JointBound& jb : result.joint) {
      std::vector<double> row(num_types, 0.0);
      bool any = false;
      for (std::size_t n = 0; n < num_types; ++n) {
        const NodeType& node = platform.node_type(n);
        if (node.units_of(jb.a) > 0 && node.units_of(jb.b) > 0) {
          row[n] = 1.0;
          any = true;
        }
      }
      if (!any) {
        cert.infeasible_reason = "uncovered-pair";
        cert.detail_resource = jb.a;
        cert.detail_resource_b = jb.b;
        return false;
      }
      lp.add_constraint(std::move(row), LinearProgram::Relation::GreaterEq,
                        static_cast<double>(jb.bound));
    }
  }
  std::vector<std::vector<std::size_t>> seen;
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    std::vector<std::size_t> eta = platform.hosts_for(app.task(i));
    if (eta.empty()) {
      cert.infeasible_reason = "task-unhostable";
      cert.detail_task = i;
      return false;
    }
    if (std::find(seen.begin(), seen.end(), eta) != seen.end()) continue;
    std::vector<double> row(num_types, 0.0);
    for (std::size_t n : eta) row[n] = 1.0;
    lp.add_constraint(std::move(row), LinearProgram::Relation::GreaterEq, 1.0);
    seen.push_back(std::move(eta));
  }
  return true;
}

/// Solve the explicit dual of min{c.x : Ax >= b, x >= 0}:
/// max{b.y : A^T y <= c, y >= 0}. The primal solver exposes no multipliers,
/// so the certificate's dual witness is produced by this second solve; its
/// objective (== the relaxation value, by strong duality) is what gets
/// recorded, keeping the certificate internally consistent to the last bit.
std::pair<std::vector<double>, double> solve_dual(const LinearProgram& primal) {
  LinearProgram dual;
  dual.sense = LinearProgram::Sense::Maximize;
  dual.objective.reserve(primal.constraints.size());
  for (const LinearProgram::Constraint& c : primal.constraints) dual.objective.push_back(c.rhs);
  for (std::size_t n = 0; n < primal.num_vars(); ++n) {
    std::vector<double> col(primal.constraints.size(), 0.0);
    for (std::size_t r = 0; r < primal.constraints.size(); ++r) {
      const auto& coeffs = primal.constraints[r].coeffs;
      if (n < coeffs.size()) col[r] = coeffs[n];
    }
    dual.add_constraint(std::move(col), LinearProgram::Relation::LessEq, primal.objective[n]);
  }
  const LpResult res = solve_lp(dual);
  if (res.status != LpResult::Status::Optimal) {
    // The primal is feasible and bounded below by 0, so this cannot happen
    // with exact arithmetic; fall back to the trivially feasible y = 0
    // (which certifies the weaker relaxation 0 <= cost).
    return {std::vector<double>(primal.constraints.size(), 0.0), 0.0};
  }
  std::vector<double> y = res.x;
  y.resize(primal.constraints.size(), 0.0);
  for (double& v : y) {
    if (v < 0 && v > -1e-12) v = 0;  // scrub solver noise off the witness
  }
  return {std::move(y), res.objective};
}

DedicatedCostCert build_dedicated_cert(const Application& app,
                                       const DedicatedPlatform& platform,
                                       const AnalysisResult& result, bool joint_rows) {
  DedicatedCostCert cert;
  cert.joint_rows = joint_rows;
  const DedicatedCostBound& cost = *result.dedicated_cost;
  LinearProgram lp;
  if (!build_program(app, platform, result, joint_rows, lp, cert)) {
    cert.feasible = false;
    return cert;  // reason + detail filled by build_program
  }
  if (!cost.feasible) {
    // Every row has a supplier, so the program itself is feasible; the only
    // remaining producer failure is the branch-and-bound node budget. Not a
    // fact about the instance -- the checker rejects it as uncertifiable.
    cert.feasible = false;
    cert.infeasible_reason = "ilp-node-limit";
    return cert;
  }
  cert.feasible = true;
  cert.total = cost.total;
  cert.node_counts = cost.node_counts;
  auto [dual, relaxation] = solve_dual(lp);
  cert.dual = std::move(dual);
  cert.relaxation = relaxation;
  return cert;
}

}  // namespace

Certificate build_certificate(const Application& app, const AnalysisOptions& options,
                              const DedicatedPlatform* platform,
                              const AnalysisResult& result) {
  Certificate cert;
  cert.version = kCertificateVersion;
  cert.dedicated = options.model == SystemModel::Dedicated;
  cert.num_tasks = app.num_tasks();

  // Step 1: windows with their merge sets, verbatim from the result. The
  // merge sets are copied in the engine's merge order (the improved prefix
  // of the Figure 2/3 candidate order, ids breaking ties) -- NOT re-sorted
  // here, so equal windows yield byte-identical WindowFacts whichever path
  // (cold analysis, lint handoff, warm session) produced them. The tie-break
  // suite in tests/test_windows.cpp pins this.
  cert.windows.reserve(app.num_tasks());
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    WindowFact fact;
    fact.task = i;
    fact.est = result.windows.est[i];
    fact.lct = result.windows.lct[i];
    fact.merged_pred = result.windows.merged_pred[i];
    fact.merged_succ = result.windows.merged_succ[i];
    cert.windows.push_back(std::move(fact));
  }

  // Step 2: block membership plus the Theorem 5 boundary facts.
  cert.partitions.reserve(result.partitions.size());
  for (const ResourcePartition& p : result.partitions) {
    PartitionCert pc;
    pc.resource = p.resource;
    pc.blocks.reserve(p.blocks.size());
    for (const PartitionBlock& b : p.blocks) pc.blocks.push_back(b.tasks);
    Time running_finish = 0;
    bool have_finish = false;
    for (std::size_t b = 0; b + 1 < p.blocks.size(); ++b) {
      for (TaskId t : p.blocks[b].tasks) {
        const Time l = result.windows.lct[t];
        running_finish = have_finish ? std::max(running_finish, l) : l;
        have_finish = true;
      }
      Time next_start = 0;
      bool have_start = false;
      for (TaskId t : p.blocks[b + 1].tasks) {
        const Time e = result.windows.est[t];
        next_start = have_start ? std::min(next_start, e) : e;
        have_start = true;
      }
      pc.separations.push_back({running_finish, next_start});
    }
    cert.partitions.push_back(std::move(pc));
  }

  // Step 3: each positive bound gets its witness interval with the Psi
  // decomposition over ST_r.
  cert.bounds.reserve(result.bounds.size());
  for (const ResourceBound& b : result.bounds) {
    BoundCert bc;
    bc.resource = b.resource;
    bc.bound = b.bound;
    if (b.bound > 0) {
      bc.witness = make_witness(app, result.windows, app.tasks_using(b.resource),
                                b.witness_t1, b.witness_t2);
    }
    cert.bounds.push_back(std::move(bc));
  }

  // EXTENSION: conjunctive pair bounds over ST_a intersect ST_b.
  cert.has_joint = options.joint_bounds;
  if (options.joint_bounds) {
    cert.joint.reserve(result.joint.size());
    for (const JointBound& jb : result.joint) {
      JointCert jc;
      jc.a = jb.a;
      jc.b = jb.b;
      jc.bound = jb.bound;
      std::vector<TaskId> both;
      for (TaskId i = 0; i < app.num_tasks(); ++i) {
        if (app.task(i).uses(jb.a) && app.task(i).uses(jb.b)) both.push_back(i);
      }
      jc.witness = make_witness(app, result.windows, both, jb.witness_t1, jb.witness_t2);
      cert.joint.push_back(std::move(jc));
    }
  }

  // Step 4: Eq. 7.1 verbatim; Eq. 7.2 with primal + dual witnesses.
  cert.shared_cost.total = result.shared_cost.total;
  cert.shared_cost.terms.reserve(result.shared_cost.terms.size());
  for (const SharedCostBound::Term& t : result.shared_cost.terms) {
    cert.shared_cost.terms.push_back({t.resource, t.units, t.unit_cost});
  }
  if (result.dedicated_cost && platform != nullptr) {
    cert.dedicated_cost =
        build_dedicated_cert(app, *platform, result, options.joint_bounds);
  }
  return cert;
}

}  // namespace rtlb
