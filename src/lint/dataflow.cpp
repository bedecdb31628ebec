#include "src/lint/dataflow.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/explain.hpp"
#include "src/lint/absint.hpp"
#include "src/lint/passes.hpp"

namespace rtlb {

namespace {

/// N421: edges the transitive reduction drops and whose message is free.
/// (A redundant edge with a non-zero message still contributes a latency
/// term, so only zero-message redundancy is safe to advise away.) Decided
/// on the bitset reachability rows, without building the reduced graph.
void redundant_edges(const LintContext& ctx, DiagnosticSink& sink) {
  const Application& app = ctx.app;
  if (app.dag().num_edges() == 0) return;
  const ReachRows reach = ctx.order != nullptr ? app.dag().reachability(*ctx.order)
                                               : app.dag().reachability();
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    for (std::size_t k = 0; k < app.successors(i).size(); ++k) {
      const TaskId j = app.successors(i)[k];
      if (app.successor_messages(i)[k] != 0 || !app.dag().redundant_edge(i, j, reach)) {
        continue;
      }
      Diagnostic d = sink.make("RTLB-N421", edge_subject(app, i, j),
                               "ordering already implied by the remaining edges "
                               "(transitive reduction drops this edge)");
      d.line = ctx.edge_line(i, j);
      if (d.line > 0) {
        d.fixes.push_back({d.line, FixEdit::Kind::kDeleteLine, ""});
      }
      sink.emit(std::move(d));
    }
  }
}

/// N422: tasks whose derived window is interior on BOTH sides -- E_i above
/// the release and L_i below the deadline -- so the window is set entirely
/// by the chain through the task. Collapsed tasks (negative slack) are
/// E101's finding and are skipped here.
void chain_determined_windows(const LintContext& ctx, DiagnosticSink& sink) {
  const Application& app = ctx.app;
  const TaskWindows& w = *ctx.windows;
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    const Task& t = app.task(i);
    if (w.slack(app, i) < 0) continue;
    if (w.est[i] <= t.release || w.lct[i] >= t.deadline) continue;

    // One dominating chain through i: the EST walk ends at i, the LCT walk
    // starts there; concatenated they are a single source-to-anchor path.
    std::vector<TaskId> chain = binding_est_chain(app, w, i);
    const std::vector<TaskId> lct_side = binding_lct_chain(app, w, i);
    chain.insert(chain.end(), lct_side.begin() + 1, lct_side.end());

    Time min_slack = w.slack(app, chain.front());
    TaskId min_task = chain.front();
    for (TaskId c : chain) {
      const Time s = w.slack(app, c);
      if (s < min_slack) {
        min_slack = s;
        min_task = c;
      }
    }
    sink.emit(task_finding(
        ctx, sink, "RTLB-N422", i,
        "window [E=" + std::to_string(w.est[i]) + ", L=" + std::to_string(w.lct[i]) +
            "] is set entirely by the chain " + chain_names(app, chain) +
            " (neither rel=" + std::to_string(t.release) + " nor D=" +
            std::to_string(t.deadline) + " binds); minimum slack along the chain is " +
            std::to_string(min_slack) + " at task '" + app.task(min_task).name + "'"));
  }
}

/// The largest of a task's window terms, the neighbour that gave it, and the
/// runner-up. Edges are unique (Dag::add_edge), so the largest over every
/// neighbour but one is O(1) per edge.
struct TopTwo {
  __int128 best;
  __int128 second;
  TaskId arg = kInvalidTask;

  void add(__int128 value, TaskId from) {
    second = std::max(second, std::min(best, value));
    if (value > best) {
      best = value;
      arg = from;
    }
  }
  __int128 without(TaskId u) const { return u == arg ? second : best; }
};

/// N423: messages that can never be the binding term of either adjacent
/// window. Proved from the absint intervals: even the LARGEST value u's
/// unmerged term can take is dominated by a sound LOWER bound on the rest of
/// E_v's constraints (and mirrored for L_u), so the inequality holds for
/// every merge decision an oracle could make.
void dead_latency_edges(const LintContext& ctx, DiagnosticSink& sink) {
  const Application& app = ctx.app;
  const AbsIntResult& ai = *ctx.absint;

  // Per task: the EST floor terms of its predecessors (over the release) and
  // the negated LCT ceiling terms of its successors (over the deadline).
  std::vector<TopTwo> est_floor;
  std::vector<TopTwo> lct_ceil;
  for (TaskId v = 0; v < app.num_tasks(); ++v) {
    const __int128 release = app.task(v).release;
    TopTwo& floor = est_floor.emplace_back(release, release);
    const auto& pred = app.predecessors(v);
    const auto pred_msg = app.predecessor_messages(v);
    for (std::size_t q = 0; q < pred.size(); ++q) {
      const TaskId j = pred[q];
      floor.add(abs_sat_add(abs_sat_add(ai.est[j].lo, static_cast<__int128>(app.task(j).comp)),
                            pred_msg[q] < 0 ? static_cast<__int128>(pred_msg[q]) : 0),
                j);
    }
    const __int128 deadline = app.task(v).deadline;
    TopTwo& ceil = lct_ceil.emplace_back(-deadline, -deadline);
    const auto& succ = app.successors(v);
    const auto succ_msg = app.successor_messages(v);
    for (std::size_t q = 0; q < succ.size(); ++q) {
      const TaskId j = succ[q];
      ceil.add(-abs_sat_add(abs_sat_add(ai.lct[j].hi, -static_cast<__int128>(app.task(j).comp)),
                            succ_msg[q] < 0 ? -static_cast<__int128>(succ_msg[q]) : 0),
               j);
    }
  }

  for (TaskId u = 0; u < app.num_tasks(); ++u) {
    const auto& succ = app.successors(u);
    const auto succ_msg = app.successor_messages(u);
    for (std::size_t k = 0; k < succ.size(); ++k) {
      const TaskId v = succ[k];
      const __int128 m = static_cast<__int128>(succ_msg[k]);
      if (m <= 0) continue;  // zero messages are N402's finding

      // EST side of v: floor over v's OTHER constraints.
      const __int128 floor = est_floor[v].without(u);
      const __int128 est_term = abs_sat_add(
          abs_sat_add(ai.est[u].hi, static_cast<__int128>(app.task(u).comp)), m);
      if (est_term > floor) continue;

      // LCT side of u: ceiling over u's OTHER constraints.
      const __int128 ceil = -lct_ceil[u].without(v);
      const __int128 lct_term = abs_sat_add(
          abs_sat_add(ai.lct[v].lo, -static_cast<__int128>(app.task(v).comp)), -m);
      if (lct_term < ceil) continue;

      Diagnostic d = sink.make(
          "RTLB-N423", edge_subject(app, u, v),
          "message latency (msg " + std::to_string(succ_msg[k]) +
              ") can never bind: the EST term tops out at " + i128_str(est_term) +
              " against a floor of " + i128_str(floor) +
              ", and the send-deadline bottoms out at " + i128_str(lct_term) +
              " against a ceiling of " + i128_str(ceil));
      d.line = ctx.edge_line(u, v);
      sink.emit(std::move(d));
    }
  }
}

}  // namespace

void dataflow_lint_pass(const LintContext& ctx, DiagnosticSink& sink) {
  redundant_edges(ctx, sink);
  if (ctx.windows == nullptr || ctx.absint == nullptr) return;
  chain_determined_windows(ctx, sink);
  dead_latency_edges(ctx, sink);
}

}  // namespace rtlb
