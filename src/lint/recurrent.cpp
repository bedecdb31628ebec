#include "src/lint/recurrent.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rtlb {

namespace {

// -- Directive renderers (must reproduce the src/model/io.cpp grammar). ----

std::string render_transaction_directive(const Transaction& tr) {
  std::string out;
  if (tr.kind == ReleaseKind::kSporadic) {
    out = "sporadic " + tr.name + " mininter " + std::to_string(tr.period);
    if (tr.offset != 0) out += " offset " + std::to_string(tr.offset);
    if (tr.horizon != 0) out += " horizon " + std::to_string(tr.horizon);
  } else {
    out = "transaction " + tr.name + " period " + std::to_string(tr.period);
    if (tr.offset != 0) out += " offset " + std::to_string(tr.offset);
  }
  return out;
}

std::string render_ttask_directive(const ResourceCatalog& catalog, const Transaction& tr,
                                   const TemplateTask& t) {
  std::string out = "ttask " + tr.name + " " + t.name + " comp " + std::to_string(t.comp);
  if (t.offset != 0) out += " offset " + std::to_string(t.offset);
  if (t.relative_deadline != 0) out += " deadline " + std::to_string(t.relative_deadline);
  out += " proc " + catalog.name(t.proc);
  if (!t.resources.empty()) {
    out += " res ";
    for (std::size_t i = 0; i < t.resources.size(); ++i) {
      if (i > 0) out += ",";
      out += catalog.name(t.resources[i]);
    }
  }
  if (t.preemptive) out += " preemptive";
  return out;
}

// -- Helpers. --------------------------------------------------------------

std::string transaction_subject(const Transaction& tr) {
  return std::string(tr.kind == ReleaseKind::kSporadic ? "sporadic" : "transaction") +
         " '" + tr.name + "'";
}

std::string task_subject(const Transaction& tr, const TemplateTask& t) {
  return "template task '" + tr.name + "." + t.name + "'";
}

/// The effective relative deadline: an explicit one, else "end of slot".
Time effective_deadline(const Transaction& tr, const TemplateTask& t) {
  return t.relative_deadline > 0 ? t.relative_deadline : tr.period;
}

/// One whole-line fix per source line: the fixit applier treats two edits to
/// one line as a conflict and refuses the batch, so when several checks hit
/// the same `transaction`/`ttask` line only the FIRST attaches a repair.
class FixBudget {
 public:
  /// True (and consumes the line's budget) when `line` is fixable and no fix
  /// was attached to it yet.
  bool claim(int line) {
    if (line <= 0) return false;
    return used_.insert(line).second;
  }

 private:
  std::set<int> used_;
};

void attach_fix(Diagnostic& d, FixBudget& budget, std::string text) {
  if (!budget.claim(d.line)) return;
  d.fixes.push_back({d.line, FixEdit::Kind::kReplaceLine, std::move(text)});
}

/// E501's repair: the smallest period that contains every declared window --
/// at least 1, past the transaction offset, and wide enough for every task's
/// offset+comp and explicit relative deadline.
Time repaired_period(const Transaction& tr) {
  Time p = 1;
  p = std::max(p, tr.offset + 1);
  for (const TemplateTask& t : tr.tasks) {
    if (t.comp > 0 && t.offset >= 0) p = std::max(p, t.offset + t.comp);
    p = std::max(p, t.relative_deadline);
  }
  return p;
}

/// Kahn's algorithm over the template edges; self-contained so the lint
/// layer does not grow a graph/ dependency for a dozen-vertex template.
bool template_is_acyclic(const Transaction& tr) {
  const std::size_t n = tr.tasks.size();
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out(n);
  for (const TemplateEdge& e : tr.edges) {
    out[e.from].push_back(e.to);
    ++indegree[e.to];
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    ++seen;
    for (std::size_t w : out[v]) {
      if (--indegree[w] == 0) ready.push_back(w);
    }
  }
  return seen == n;
}

/// E507 catch-all: everything that must hold before any other check can be
/// stated (ids resolvable, edges in range, names unique, scalars sane).
/// Returns true when the transaction is structurally sound.
bool check_template_structure(const ResourceCatalog& catalog, const Transaction& tr,
                              DiagnosticSink& sink) {
  bool ok = true;
  auto broken = [&](std::string subject, std::string message, int line) {
    Diagnostic d = sink.make("RTLB-E507", std::move(subject), std::move(message));
    d.line = line;
    sink.emit(std::move(d));
    ok = false;
  };

  if (tr.tasks.empty()) {
    broken(transaction_subject(tr), "transaction declares no tasks", tr.line);
  }
  std::set<std::string> names;
  for (const TemplateTask& t : tr.tasks) {
    if (!names.insert(t.name).second) {
      broken(task_subject(tr, t), "duplicate template task name", t.line);
    }
    if (t.proc == kInvalidResource || static_cast<std::size_t>(t.proc) >= catalog.size()) {
      broken(task_subject(tr, t), "processor-type id is not in the catalog", t.line);
    } else if (!catalog.is_processor(t.proc)) {
      broken(task_subject(tr, t), "proc names a plain resource, not a processor type",
             t.line);
    }
    for (ResourceId r : t.resources) {
      if (r == kInvalidResource || static_cast<std::size_t>(r) >= catalog.size()) {
        broken(task_subject(tr, t), "resource id in res is not in the catalog", t.line);
      } else if (catalog.is_processor(r)) {
        broken(task_subject(tr, t), "res contains a processor type", t.line);
      }
    }
    if (t.relative_deadline < 0) {
      broken(task_subject(tr, t), "negative relative deadline", t.line);
    }
  }
  for (const TemplateEdge& e : tr.edges) {
    if (e.from >= tr.tasks.size() || e.to >= tr.tasks.size() || e.from == e.to) {
      broken(transaction_subject(tr), "template edge endpoint out of range", e.line);
      continue;
    }
    if (e.msg < 0) {
      broken("template edge " + tr.tasks[e.from].name + " -> " + tr.tasks[e.to].name,
             "negative message size", e.line);
    }
  }
  return ok;
}

/// Release-law checks: E501 (period / minimum inter-arrival), E502 on the
/// transaction offset, E505 (sporadic horizon). Returns false when the
/// period is unusable (window checks would be meaningless).
bool check_release_law(const Transaction& tr, bool any_periodic_sibling,
                       DiagnosticSink& sink, FixBudget& fixes) {
  if (tr.period <= 0) {
    Diagnostic d = sink.make(
        "RTLB-E501", transaction_subject(tr),
        std::string(tr.kind == ReleaseKind::kSporadic
                        ? "minimum inter-arrival must be positive"
                        : "period must be positive"));
    d.line = tr.line;
    Transaction repaired = tr;
    repaired.period = repaired_period(tr);
    if (repaired.offset >= 0) {
      attach_fix(d, fixes, render_transaction_directive(repaired));
    }
    sink.emit(std::move(d));
    return false;
  }

  if (tr.offset < 0 || tr.offset >= tr.period) {
    Diagnostic d = sink.make(
        "RTLB-E502", transaction_subject(tr),
        "release offset lies outside [0, " +
            std::string(tr.kind == ReleaseKind::kSporadic ? "mininter" : "period") + ")");
    d.line = tr.line;
    Transaction repaired = tr;
    repaired.offset = 0;
    attach_fix(d, fixes, render_transaction_directive(repaired));
    sink.emit(std::move(d));
  } else if (tr.kind == ReleaseKind::kSporadic) {
    // A sporadic transaction needs a horizon to bound its densest release
    // sequence: its own, or the periodic siblings' hyperperiod.
    const bool own_horizon = tr.horizon > tr.offset;
    if (!own_horizon && !(tr.horizon == 0 && any_periodic_sibling)) {
      Diagnostic d = sink.make(
          "RTLB-E505", transaction_subject(tr),
          tr.horizon == 0
              ? "no horizon declared and no periodic transaction to borrow a "
                "hyperperiod from"
              : "horizon does not reach past the release offset");
      d.line = tr.line;
      Transaction repaired = tr;
      repaired.horizon = 4 * tr.period;
      attach_fix(d, fixes, render_transaction_directive(repaired));
      sink.emit(std::move(d));
    }
  }
  return true;
}

/// Per-task window checks: E001 (comp), E502 on the task offset, E503
/// (deadline beyond the period), E504 (window cannot hold the task).
void check_template_task(const ResourceCatalog& catalog, const Transaction& tr,
                         const TemplateTask& t, DiagnosticSink& sink, FixBudget& fixes) {
  if (t.comp <= 0) {
    Diagnostic d = sink.make("RTLB-E001", task_subject(tr, t));
    d.line = t.line;
    TemplateTask repaired = t;
    repaired.comp = 1;
    if (t.offset >= 0 && t.offset < tr.period && t.relative_deadline <= tr.period &&
        effective_deadline(tr, t) - t.offset >= 1) {
      attach_fix(d, fixes, render_ttask_directive(catalog, tr, repaired));
    }
    sink.emit(std::move(d));
    return;  // window checks are meaningless without a computation time
  }

  if (t.offset < 0 || t.offset >= tr.period) {
    Diagnostic d = sink.make("RTLB-E502", task_subject(tr, t),
                             "release offset lies outside [0, period)");
    d.line = t.line;
    TemplateTask repaired = t;
    repaired.offset = 0;
    // Only repair when the task actually fits at offset 0 (and the deadline
    // is constrained, so the fix cannot unmask an E503 next round).
    if (effective_deadline(tr, t) >= t.comp && t.relative_deadline <= tr.period) {
      attach_fix(d, fixes, render_ttask_directive(catalog, tr, repaired));
    }
    sink.emit(std::move(d));
    return;  // the window below would double-report the bad offset
  }

  if (t.relative_deadline > tr.period) {
    Diagnostic d = sink.make(
        "RTLB-E503", task_subject(tr, t),
        "relative deadline reaches beyond the period; successive activations would "
        "overlap their own chain");
    d.line = t.line;
    TemplateTask repaired = t;
    repaired.relative_deadline = 0;  // "end of slot"
    if (tr.period - t.offset >= t.comp) {
      attach_fix(d, fixes, render_ttask_directive(catalog, tr, repaired));
    }
    sink.emit(std::move(d));
  }

  if (effective_deadline(tr, t) - t.offset < t.comp) {
    Diagnostic d = sink.make("RTLB-E504", task_subject(tr, t),
                             "template window [offset, deadline] is shorter than the "
                             "computation time");
    d.line = t.line;
    if (t.relative_deadline > 0 && tr.period - t.offset >= t.comp) {
      TemplateTask repaired = t;
      repaired.relative_deadline = 0;
      attach_fix(d, fixes, render_ttask_directive(catalog, tr, repaired));
    }
    sink.emit(std::move(d));
  }
}

}  // namespace

void recurrent_lint_pass(const ResourceCatalog& catalog, const Workload& workload,
                         const DedicatedPlatform* platform, DiagnosticSink& sink) {
  (void)platform;  // reserved: capacity-aware utilization once node counts exist

  FixBudget fixes;
  bool any_periodic = false;
  for (const Transaction& tr : workload.transactions) {
    if (tr.kind == ReleaseKind::kPeriodic && tr.period > 0) any_periodic = true;
  }

  std::set<std::string> names;
  for (const Transaction& tr : workload.transactions) {
    if (!names.insert(tr.name).second) {
      Diagnostic d =
          sink.make("RTLB-E507", transaction_subject(tr), "duplicate transaction name");
      d.line = tr.line;
      sink.emit(std::move(d));
      continue;
    }
    if (!check_template_structure(catalog, tr, sink)) continue;

    if (!template_is_acyclic(tr)) {
      Diagnostic d = sink.make("RTLB-E506", transaction_subject(tr),
                               "template precedence edges form a cycle");
      d.line = tr.line;
      sink.emit(std::move(d));
    }

    if (!check_release_law(tr, any_periodic, sink, fixes)) continue;

    for (const TemplateTask& t : tr.tasks) {
      check_template_task(catalog, tr, t, sink, fixes);
    }
  }

  // Workload-wide: a representable hyperperiod (E508), a lowering within
  // the task and edge budgets (E509) ...
  const Hyperperiod h = checked_hyperperiod(workload.transactions);
  if (h.overflow) {
    Diagnostic d = sink.make(
        "RTLB-E508", "",
        "hyperperiod of the transaction periods overflows the Time range");
    d.hint = "make the periods harmonic (each dividing the next) or rescale the time "
             "unit; the lcm of the declared periods exceeds kTimeMax";
    sink.emit(std::move(d));
  } else {
    const auto tasks_of = [&](const Transaction& tr) {
      return activation_count(tr, h.value) * static_cast<__int128>(tr.tasks.size());
    };
    // Budgeted as the default, chained lowering (LowerOptions::chain_instances).
    const auto edges_of = [&](const Transaction& tr) {
      return lowered_edge_count(tr, h.value, /*chain_instances=*/true);
    };
    __int128 edges = 0;
    for (const Transaction& tr : workload.transactions) edges += edges_of(tr);
    const bool over_tasks = lowered_task_count(workload.transactions, h.value) > kMaxLoweredTasks;
    if (over_tasks || edges > kMaxLoweredEdges) {
      // Name the transaction that unrolls into the most of what ran over.
      const Transaction* largest = &workload.transactions.front();
      for (const Transaction& tr : workload.transactions) {
        if (over_tasks ? tasks_of(tr) > tasks_of(*largest) : edges_of(tr) > edges_of(*largest)) {
          largest = &tr;
        }
      }
      const auto shown = [](__int128 v) {
        return v > kTimeMax ? "more than " + std::to_string(kTimeMax)
                            : std::to_string(static_cast<std::int64_t>(v));
      };
      const std::string activations = shown(activation_count(*largest, h.value));
      Diagnostic d = sink.make(
          "RTLB-E509", transaction_subject(*largest),
          over_tasks ? "lowering would unroll " + activations +
                           " activations of this transaction; the workload exceeds the "
                           "budget of " + std::to_string(kMaxLoweredTasks) + " lowered tasks"
                     : "lowering would add " + shown(edges_of(*largest)) +
                           " precedence edges over " + activations +
                           " activations of this transaction; the workload exceeds the "
                           "budget of " + std::to_string(kMaxLoweredEdges) + " lowered edges");
      d.line = largest->line;
      sink.emit(std::move(d));
    }
  }

  // ... and steady-state utilization per processor type (W510). The densest
  // sporadic release sequence demands comp every mininter ticks, so sporadic
  // transactions contribute exactly like periodic ones.
  for (ResourceId p = 0; static_cast<std::size_t>(p) < catalog.size(); ++p) {
    if (!catalog.is_processor(p)) continue;
    long double util = 0.0L;
    for (const Transaction& tr : workload.transactions) {
      if (tr.period <= 0) continue;  // already an E501
      for (const TemplateTask& t : tr.tasks) {
        if (t.proc != p || t.comp <= 0) continue;
        util += static_cast<long double>(t.comp) / static_cast<long double>(tr.period);
      }
    }
    if (util > 1.0L) {
      Diagnostic d = sink.make(
          "RTLB-W510", "processor type '" + catalog.name(p) + "'",
          "steady-state utilization exceeds one processor unit");
      d.resource = p;
      sink.emit(std::move(d));
    }
  }
}

LintResult lint_workload(const ResourceCatalog& catalog, const Workload& workload,
                         const DedicatedPlatform* platform, const LintOptions& options) {
  LintResult result;
  DiagnosticSink sink(result, options);
  recurrent_lint_pass(catalog, workload, platform, sink);
  return result;
}

LintResult merge_lint_results(LintResult front, LintResult back) {
  front.diagnostics.insert(front.diagnostics.end(),
                           std::make_move_iterator(back.diagnostics.begin()),
                           std::make_move_iterator(back.diagnostics.end()));
  front.errors += back.errors;
  front.warnings += back.warnings;
  front.notes += back.notes;
  front.truncated = front.truncated || back.truncated;
  return front;
}

}  // namespace rtlb
