#include "src/lint/passes.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/core/partition.hpp"
#include "src/lint/fixit.hpp"

namespace rtlb {

std::string task_subject(const Application& app, TaskId i) {
  return "task '" + app.task(i).name + "' (#" + std::to_string(i) + ")";
}

std::string edge_subject(const Application& app, TaskId from, TaskId to) {
  return "edge " + app.task(from).name + " -> " + app.task(to).name;
}

Diagnostic task_finding(const LintContext& ctx, const DiagnosticSink& sink, const char* code,
                        TaskId i, std::string message) {
  Diagnostic d = sink.make(code, task_subject(ctx.app, i), std::move(message));
  d.task = i;
  d.line = ctx.task_line(i);
  return d;
}

std::string chain_names(const Application& app, const std::vector<TaskId>& chain) {
  std::string out;
  for (std::size_t k = 0; k < chain.size(); ++k) {
    if (k > 0) out += " -> ";
    out += app.task(chain[k]).name.empty() ? "#" + std::to_string(chain[k])
                                           : app.task(chain[k]).name;
  }
  return out;
}

namespace {

std::string catalog_subject(const Application& app, ResourceId r) {
  return std::string(app.catalog().is_processor(r) ? "processor type '" : "resource '") +
         app.catalog().name(r) + "'";
}

/// Attach a whole-line task repair when the declaration is line-anchored.
/// `t` is the repaired copy; the edit reproduces serialize_instance()'s
/// spelling so the fixed file still round-trips.
void attach_task_fix(Diagnostic& d, const LintContext& ctx, const Task& t) {
  if (d.line <= 0) return;
  d.fixes.push_back({d.line, FixEdit::Kind::kReplaceLine,
                     render_task_directive(ctx.app, t)});
}

}  // namespace

void structural_lint_pass(const LintContext& ctx, DiagnosticSink& sink) {
  const Application& app = ctx.app;
  const ResourceCatalog& cat = app.catalog();

  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    const Task& t = app.task(i);
    auto emit = [&](const char* code, std::string message = "") {
      sink.emit(task_finding(ctx, sink, code, i, std::move(message)));
    };

    if (t.comp <= 0) emit("RTLB-E001", "computation time must be positive");
    if (t.proc >= cat.size()) {
      emit("RTLB-E002", "invalid processor type id");
    } else if (!cat.is_processor(t.proc)) {
      emit("RTLB-E003", "phi_i '" + cat.name(t.proc) + "' is not a processor type");
    }
    for (ResourceId r : t.resources) {
      if (r >= cat.size()) {
        emit("RTLB-E004", "invalid resource id");
      } else if (cat.is_processor(r)) {
        emit("RTLB-E005", "R_i contains processor type '" + cat.name(r) + "'");
      }
    }
    // deadline - release overflows only for a window wider than any Time,
    // which no computation time exceeds.
    Time span = 0;
    const bool wide = __builtin_sub_overflow(t.deadline, t.release, &span);
    if (t.deadline < t.release || (!wide && span < t.comp)) {
      const char* code = t.deadline < t.release ? "RTLB-E008" : "RTLB-E009";
      std::string message =
          t.deadline < t.release
              ? "deadline " + std::to_string(t.deadline) + " precedes release " +
                    std::to_string(t.release)
              : "window [rel, D] shorter than computation time";
      Diagnostic d = task_finding(ctx, sink, code, i, std::move(message));
      // Repair: the smallest window leaving POSITIVE slack (deficit + 1) --
      // fixing to the exact boundary would trade the error for a fresh
      // zero-slack W102/W103 and break the strictly-fewer-findings contract.
      if (t.comp > 0 && t.release <= kTimeMax - t.comp - 1) {
        Task repaired = t;
        repaired.deadline = t.release + t.comp + 1;
        attach_task_fix(d, ctx, repaired);
      }
      sink.emit(std::move(d));
    }
  }

  // Duplicate non-empty names (empty names are legal for programmatic
  // throwaway models and are not a join key). Sorted by (name, id), each
  // run of one name starts at its first declaration.
  std::vector<std::pair<std::string_view, TaskId>> by_name;
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    if (!app.task(i).name.empty()) by_name.emplace_back(app.task(i).name, i);
  }
  std::ranges::sort(by_name);
  std::vector<std::pair<TaskId, TaskId>> duplicates;  // (task, first declared)
  for (std::size_t k = 1, first = 0; k < by_name.size(); ++k) {
    if (by_name[k].first != by_name[first].first) {
      first = k;
    } else {
      duplicates.emplace_back(by_name[k].second, by_name[first].second);
    }
  }
  std::ranges::sort(duplicates);
  for (const auto& [i, first] : duplicates) {
    sink.emit(task_finding(ctx, sink, "RTLB-E006", i,
                           "duplicate task name (first declared as #" +
                               std::to_string(first) + ")"));
  }

  // Linter::run hands on the order it computed (null on a cycle); a pass run
  // on its own decides acyclicity itself.
  if (ctx.order == nullptr && !app.dag().is_acyclic()) {
    sink.emit(sink.make("RTLB-E007", "", "precedence graph has a cycle"));
  }
}

void temporal_lint_pass(const LintContext& ctx, DiagnosticSink& sink) {
  if (ctx.windows == nullptr) return;
  const Application& app = ctx.app;
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    const Time slack = ctx.windows->slack(app, i);
    if (slack < 0) {
      Diagnostic d = task_finding(
          ctx, sink, "RTLB-E101", i,
          "derived window [E=" + std::to_string(ctx.windows->est[i]) +
              ", L=" + std::to_string(ctx.windows->lct[i]) + "] cannot contain C=" +
              std::to_string(app.task(i).comp) + " (slack " + std::to_string(slack) + ")");
      // Repair only when raising THIS task's deadline provably raises L_i:
      // the task is a sink and its own deadline is the binding constraint.
      // (Interior tasks inherit L_i from downstream -- widening their
      // declared deadline changes nothing; that chain is N422's finding.)
      const Task& t = app.task(i);
      if (app.successors(i).empty() && ctx.windows->lct[i] == t.deadline &&
          t.deadline <= kTimeMax + slack - 1) {
        Task repaired = t;
        repaired.deadline = t.deadline - slack + 1;  // deficit + 1: positive slack
        attach_task_fix(d, ctx, repaired);
      }
      sink.emit(std::move(d));
    } else if (slack == 0 && !app.task(i).preemptive) {
      sink.emit(task_finding(
          ctx, sink, "RTLB-W102", i,
          "non-preemptive task has zero derived slack; its start time is fixed at E=" +
              std::to_string(ctx.windows->est[i])));
    } else if (slack == 0) {
      // Preemptive sibling of W102: with L - E == C the task saturates its
      // window, so Psi contributes the full C over [E, L] and preemption
      // offers no real flexibility.
      sink.emit(task_finding(
          ctx, sink, "RTLB-W103", i,
          "preemptive task has a tight window [E=" + std::to_string(ctx.windows->est[i]) +
              ", L=" + std::to_string(ctx.windows->lct[i]) + "] exactly equal to C=" +
              std::to_string(app.task(i).comp)));
    }
  }
}

void platform_lint_pass(const LintContext& ctx, DiagnosticSink& sink) {
  const Application& app = ctx.app;
  const ResourceCatalog& cat = app.catalog();

  // W201: catalog entries no task references. ST_r is empty for such an r,
  // so its partition has no blocks and LB_r would be 0.
  std::vector<bool> used(cat.size(), false);
  for (const Task& t : app.tasks()) {
    used[t.proc] = true;
    for (ResourceId r : t.resources) used[r] = true;
  }
  for (ResourceId r = 0; r < cat.size(); ++r) {
    if (used[r]) continue;
    Diagnostic d = sink.make("RTLB-W201", catalog_subject(app, r),
                             "declared but used by no task (ST_r is empty)");
    d.resource = r;
    d.line = ctx.resource_line(r);
    // Deleting the declaration is only safe when no platform node line still
    // references the name -- the repaired file must re-parse.
    bool node_referenced = false;
    if (ctx.platform != nullptr) {
      for (const NodeType& node : ctx.platform->node_types()) {
        node_referenced |= node.proc == r;
        for (const auto& [res, units] : node.resources) node_referenced |= res == r;
      }
    }
    if (d.line > 0 && !node_referenced) {
      d.fixes.push_back({d.line, FixEdit::Kind::kDeleteLine, ""});
    }
    sink.emit(std::move(d));
  }

  if (ctx.platform == nullptr) return;

  // E202: Eq. 7.2's covering constraint "some node hosts task i" has an
  // empty left-hand side -- the dedicated ILP is infeasible as written.
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    const Task& t = app.task(i);
    if (!ctx.platform->hosts_for(t).empty()) continue;
    std::string req = "processor '" + cat.name(t.proc) + "'";
    for (ResourceId r : t.resources) req += " + '" + cat.name(r) + "'";
    sink.emit(task_finding(ctx, sink, "RTLB-E202", i, "no node type in the menu provides " + req));
  }

  // W203: menu entries that host nothing only enlarge the ILP.
  for (std::size_t n = 0; n < ctx.platform->num_node_types(); ++n) {
    const NodeType& node = ctx.platform->node_type(n);
    bool hosts_any = false;
    for (const Task& t : app.tasks()) {
      if (node.can_host(t.proc, t.resources)) {
        hosts_any = true;
        break;
      }
    }
    if (!hosts_any) {
      Diagnostic d = sink.make("RTLB-W203", "node type '" + node.name + "'",
                               "can host no task of this application");
      d.line = ctx.node_line(n);
      if (d.line > 0) {
        d.fixes.push_back({d.line, FixEdit::Kind::kDeleteLine, ""});
      }
      sink.emit(std::move(d));
    }
  }
}

void numeric_lint_pass(const LintContext& ctx, DiagnosticSink& sink) {
  const Application& app = ctx.app;

  // E301: Theta sums per resource must stay representable; a wrapped demand
  // would silently corrupt LB_r. One pass over the tasks: add_task keeps R_i
  // unique and free of proc, so a task counts once per resource it uses.
  std::vector<Time> demand(app.catalog().size(), 0);
  std::vector<bool> overflow(app.catalog().size(), false);
  for (const Task& t : app.tasks()) {
    auto add = [&](ResourceId r) {
      if (!overflow[r]) overflow[r] = __builtin_add_overflow(demand[r], t.comp, &demand[r]);
    };
    add(t.proc);
    for (ResourceId r : t.resources) add(r);
  }
  for (ResourceId r = 0; r < app.catalog().size(); ++r) {
    if (overflow[r]) {
      Diagnostic d = sink.make("RTLB-E301", catalog_subject(app, r),
                               "total computation demand overflows the Time range");
      d.resource = r;
      d.line = ctx.resource_line(r);
      sink.emit(std::move(d));
    }
  }

  // W302: timings beyond kTimeMax may saturate window arithmetic.
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    const Task& t = app.task(i);
    const bool out_of_range = t.comp > kTimeMax || t.release > kTimeMax ||
                              t.release < kTimeMin || t.deadline > kTimeMax ||
                              t.deadline < kTimeMin;
    if (!out_of_range) continue;
    Diagnostic d = task_finding(ctx, sink, "RTLB-W302", i,
                                "comp/rel/deadline magnitude beyond kTimeMax (" +
                                    std::to_string(kTimeMax) + ")");
    // Repair: clamp every timing into [kTimeMin, kTimeMax]. Only offered
    // when the clamped window still holds the clamped computation time --
    // otherwise the fix would trade a warning for a structural error.
    Task repaired = t;
    repaired.comp = std::min(t.comp, kTimeMax);
    repaired.release = std::clamp(t.release, kTimeMin, kTimeMax);
    repaired.deadline = std::clamp(t.deadline, kTimeMin, kTimeMax);
    if (repaired.deadline >= repaired.release &&
        repaired.deadline - repaired.release >= repaired.comp) {
      attach_task_fix(d, ctx, repaired);
    }
    sink.emit(std::move(d));
  }
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    for (std::size_t k = 0; k < app.successors(i).size(); ++k) {
      const TaskId j = app.successors(i)[k];
      if (app.successor_messages(i)[k] <= kTimeMax) continue;
      Diagnostic d = sink.make("RTLB-W302", edge_subject(app, i, j),
                               "message size beyond kTimeMax (" + std::to_string(kTimeMax) +
                                   ")");
      d.line = ctx.edge_line(i, j);
      if (d.line > 0) {
        d.fixes.push_back({d.line, FixEdit::Kind::kReplaceLine,
                           render_edge_directive(app, i, j, kTimeMax)});
      }
      sink.emit(std::move(d));
    }
  }
}

void hygiene_lint_pass(const LintContext& ctx, DiagnosticSink& sink) {
  const Application& app = ctx.app;

  // W401: isolated vertices in an application that otherwise has precedence
  // structure (an app with no edges at all is a plain independent task set).
  if (app.dag().num_edges() > 0) {
    for (TaskId i = 0; i < app.num_tasks(); ++i) {
      if (app.dag().in_degree(i) > 0 || app.dag().out_degree(i) > 0) continue;
      sink.emit(task_finding(ctx, sink, "RTLB-W401", i));
    }
  }

  // N402: zero-size messages.
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    for (std::size_t k = 0; k < app.successors(i).size(); ++k) {
      const TaskId j = app.successors(i)[k];
      if (app.successor_messages(i)[k] != 0) continue;
      Diagnostic d = sink.make("RTLB-N402", edge_subject(app, i, j));
      d.line = ctx.edge_line(i, j);
      sink.emit(std::move(d));
    }
  }

  // N403: resources whose ST_r never splits -- the Theorem-5 speedup does
  // not apply, so the full quadratic interval scan runs for them.
  if (ctx.windows != nullptr) {
    std::vector<ResourcePartition> own;
    if (ctx.partitions == nullptr) own = partition_all(app, *ctx.windows);
    for (const ResourcePartition& p : ctx.partitions != nullptr ? *ctx.partitions : own) {
      if (p.blocks.size() != 1 || p.blocks[0].tasks.size() < 2) continue;
      Diagnostic d =
          sink.make("RTLB-N403", catalog_subject(app, p.resource),
                    "all " + std::to_string(p.blocks[0].tasks.size()) +
                        " tasks of ST_r fall into one partition block");
      d.resource = p.resource;
      sink.emit(std::move(d));
    }
  }
}

}  // namespace rtlb
