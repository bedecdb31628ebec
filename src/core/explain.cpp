#include "src/core/explain.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "src/core/overlap.hpp"
#include "src/core/partition.hpp"

namespace rtlb {

std::vector<TaskId> binding_est_chain(const Application& app, const TaskWindows& w,
                                      TaskId i) {
  std::vector<TaskId> chain{i};
  TaskId cur = i;
  for (std::size_t guard = 0; guard <= app.num_tasks(); ++guard) {
    TaskId binding = kInvalidTask;
    Time best = app.task(cur).release;
    for (std::size_t k = 0; k < app.predecessors(cur).size(); ++k) {
      const TaskId j = app.predecessors(cur)[k];
      const bool merged =
          std::find(w.merged_pred[cur].begin(), w.merged_pred[cur].end(), j) !=
          w.merged_pred[cur].end();
      const Time contribution =
          w.est[j] + app.task(j).comp + (merged ? 0 : app.predecessor_messages(cur)[k]);
      if (contribution > best) {
        best = contribution;
        binding = j;
      }
    }
    if (binding == kInvalidTask) break;  // the release time anchors the chain
    chain.push_back(binding);
    cur = binding;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::vector<TaskId> binding_lct_chain(const Application& app, const TaskWindows& w,
                                      TaskId i) {
  std::vector<TaskId> chain{i};
  TaskId cur = i;
  for (std::size_t guard = 0; guard <= app.num_tasks(); ++guard) {
    TaskId binding = kInvalidTask;
    Time best = app.task(cur).deadline;
    for (std::size_t k = 0; k < app.successors(cur).size(); ++k) {
      const TaskId j = app.successors(cur)[k];
      const bool merged =
          std::find(w.merged_succ[cur].begin(), w.merged_succ[cur].end(), j) !=
          w.merged_succ[cur].end();
      const Time contribution =
          w.lct[j] - app.task(j).comp - (merged ? 0 : app.successor_messages(cur)[k]);
      if (contribution < best) {
        best = contribution;
        binding = j;
      }
    }
    if (binding == kInvalidTask) break;  // the deadline anchors the chain
    chain.push_back(binding);
    cur = binding;
  }
  return chain;
}

namespace {

/// The worst over-capacity interval of one partition block, or nullopt.
std::optional<CapacityViolation> worst_block_violation(const Application& app,
                                                       const TaskWindows& windows,
                                                       ResourceId r, int cap,
                                                       const PartitionBlock& block,
                                                       bool prune) {
  std::vector<Time> points;
  Time total_demand = 0;
  for (TaskId i : block.tasks) {
    points.push_back(windows.est[i]);
    points.push_back(windows.lct[i]);
    total_demand += app.task(i).comp;
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  CapacityViolation worst;
  Time worst_excess = 0;
  for (std::size_t x = 0; x + 1 < points.size(); ++x) {
    for (std::size_t y = x + 1; y < points.size(); ++y) {
      const Time width = points[y] - points[x];
      // Theta <= total_demand and the supply cap * width only grows with y,
      // so the best-possible excess of the rest of the row is below the
      // incumbent: skip it.
      if (prune && !(static_cast<__int128>(total_demand) -
                         static_cast<__int128>(cap) * width >
                     worst_excess)) {
        break;
      }
      const Time theta = demand(app, windows, block.tasks, points[x], points[y]);
      const Time excess = theta - static_cast<Time>(cap) * width;
      if (excess > worst_excess) {
        worst_excess = excess;
        worst.resource = r;
        worst.capacity = cap;
        worst.t1 = points[x];
        worst.t2 = points[y];
        worst.demand = theta;
      }
    }
  }
  if (worst_excess <= 0) return std::nullopt;
  for (TaskId i : block.tasks) {
    const Time psi = overlap(app, windows, i, worst.t1, worst.t2);
    if (psi > 0) worst.contributions.emplace_back(i, psi);
  }
  return worst;
}

}  // namespace

InfeasibilityReport diagnose(const Application& app, const TaskWindows& windows,
                             const Capacities* caps, const LowerBoundOptions& opts) {
  InfeasibilityReport report;

  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    if (windows.slack(app, i) < 0) {
      report.feasible_windows = false;
      WindowCollapse c;
      c.task = i;
      c.est = windows.est[i];
      c.lct = windows.lct[i];
      for (TaskId t : binding_est_chain(app, windows, i)) {
        c.est_chain.push_back(app.task(t).name);
      }
      for (TaskId t : binding_lct_chain(app, windows, i)) {
        c.lct_chain.push_back(app.task(t).name);
      }
      report.collapses.push_back(std::move(c));
    }
  }

  if (caps != nullptr) {
    // Violations are reported in resource/block order.
    for (const ResourcePartition& p : partition_all(app, windows)) {
      for (const PartitionBlock& b : p.blocks) {
        std::optional<CapacityViolation> v = worst_block_violation(
            app, windows, p.resource, caps->of(p.resource), b, opts.enable_pruning);
        if (!v) continue;
        report.feasible_capacity = false;
        report.violations.push_back(std::move(*v));
      }
    }
  }
  return report;
}

std::string explain(const Application& app, const InfeasibilityReport& report) {
  std::ostringstream out;
  if (!report.any()) {
    out << "no infeasibility detected: every window holds its task";
    if (report.violations.empty() && report.feasible_capacity) {
      out << " and no interval over-demands any resource";
    }
    out << ".\n";
    return out.str();
  }
  for (const WindowCollapse& c : report.collapses) {
    const Task& t = app.task(c.task);
    out << "task '" << t.name << "' cannot fit: its window [" << c.est << ", " << c.lct
        << "] holds " << (c.lct - c.est) << " tick(s) but the task needs " << t.comp
        << ".\n  earliest start " << c.est << " is forced by the chain ";
    for (std::size_t k = 0; k < c.est_chain.size(); ++k) {
      out << (k ? " -> " : "") << c.est_chain[k];
    }
    out << "\n  latest completion " << c.lct << " is forced by the chain ";
    for (std::size_t k = 0; k < c.lct_chain.size(); ++k) {
      out << (k ? " -> " : "") << c.lct_chain[k];
    }
    out << "\n";
  }
  for (const CapacityViolation& v : report.violations) {
    out << "resource '" << app.catalog().name(v.resource) << "' (" << v.capacity
        << " unit(s)) is over-committed in [" << v.t1 << ", " << v.t2 << "]: mandatory demand "
        << v.demand << " > " << v.capacity << " x " << (v.t2 - v.t1) << ".\n  contributors:";
    for (const auto& [task, psi] : v.contributions) {
      out << " " << app.task(task).name << "(" << psi << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace rtlb
