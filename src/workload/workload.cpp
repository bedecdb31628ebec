#include "src/workload/workload.hpp"

#include "src/graph/dag.hpp"
#include "src/lint/recurrent.hpp"

namespace rtlb {

Time hyperperiod(const std::vector<Transaction>& transactions) {
  for (const Transaction& tr : transactions) {
    if (tr.kind == ReleaseKind::kPeriodic) {
      RTLB_CHECK(tr.period > 0, "transaction period must be positive");
    }
  }
  const Hyperperiod h = checked_hyperperiod(transactions);
  if (h.overflow) {
    throw ModelError("hyperperiod of the transaction periods overflows the Time range");
  }
  return h.value;
}

void validate_workload(const ResourceCatalog& catalog, const Workload& workload) {
  // Single source of truth: the recurrent lint pass produces the batch of
  // findings; this throwing path surfaces the first error (mirroring
  // Application::validate over the structural pass).
  const LintResult result = lint_workload(catalog, workload);
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::kError) continue;
    const std::string message(d.message);
    throw ModelError(d.subject.empty() ? message : d.subject + ": " + message);
  }
}

namespace {

/// Append the lowered instances of every transaction to `app`. Assumes the
/// workload was validated.
void lower_into(const Workload& workload, Application& app, const LowerOptions& options) {
  const Hyperperiod h = checked_hyperperiod(workload.transactions);
  RTLB_CHECK(!h.overflow, "lowering a workload whose hyperperiod overflows");
  RTLB_CHECK(lowered_task_count(workload.transactions, h.value) <= kMaxLoweredTasks,
             "lowering a workload over the lowered-task budget");
  __int128 edges = 0;
  for (const Transaction& tr : workload.transactions) {
    edges += lowered_edge_count(tr, h.value, options.chain_instances);
  }
  RTLB_CHECK(edges <= kMaxLoweredEdges, "lowering a workload over the lowered-edge budget");

  for (const Transaction& tr : workload.transactions) {
    // Within the budget, so the count fits in Time.
    const Time instances = static_cast<Time>(activation_count(tr, h.value));

    // Template topology, shared by every activation: the per-activation
    // edges plus (when chaining) the previous activation's sinks feeding
    // the current activation's sources.
    Dag graph(tr.tasks.size());
    for (const TemplateEdge& e : tr.edges) {
      graph.add_edge(static_cast<std::uint32_t>(e.from), static_cast<std::uint32_t>(e.to));
    }
    const std::vector<std::uint32_t> sources = graph.sources();
    const std::vector<std::uint32_t> sinks = graph.sinks();

    std::vector<TaskId> prev_instance;  // ids of the previous activation's tasks
    for (Time k = 0; k < instances; ++k) {
      const Time slot =
          tr.offset + static_cast<Time>(static_cast<__int128>(k) * tr.period);
      std::vector<TaskId> ids;
      ids.reserve(tr.tasks.size());
      for (const TemplateTask& t : tr.tasks) {
        Task inst;
        inst.name = tr.name + "." + t.name + "@" + std::to_string(k);
        inst.comp = t.comp;
        inst.release = slot + t.offset;
        inst.deadline = slot + (t.relative_deadline > 0 ? t.relative_deadline : tr.period);
        inst.proc = t.proc;
        inst.resources = t.resources;
        inst.preemptive = t.preemptive;
        ids.push_back(app.add_task(std::move(inst)));
      }
      for (const TemplateEdge& e : tr.edges) {
        app.add_edge(ids[e.from], ids[e.to], e.msg);
      }
      if (options.chain_instances && k > 0) {
        // Activation k may not start before activation k-1 finished: chain
        // the previous sinks to the current sources with zero-size messages.
        for (std::uint32_t sink : sinks) {
          for (std::uint32_t source : sources) {
            if (!app.dag().has_edge(prev_instance[sink], ids[source])) {
              app.add_edge(prev_instance[sink], ids[source], 0);
            }
          }
        }
      }
      prev_instance = std::move(ids);
    }
  }
}

}  // namespace

Application lower_workload(const ResourceCatalog& catalog, const Workload& workload,
                           const LowerOptions& options) {
  if (options.validate) validate_workload(catalog, workload);
  Application app(catalog);
  lower_into(workload, app, options);
  if (options.validate) app.validate();
  return app;
}

void lower_instance(ProblemInstance& inst, const LowerOptions& options) {
  if (inst.workload.empty()) return;
  if (options.validate) validate_workload(*inst.catalog, inst.workload);
  lower_into(inst.workload, *inst.app, options);
  if (options.validate) inst.app->validate();
}

Application unroll(const ResourceCatalog& catalog, const std::vector<Transaction>& transactions,
                   bool chain_instances) {
  Workload workload;
  workload.transactions = transactions;
  LowerOptions options;
  options.chain_instances = chain_instances;
  return lower_workload(catalog, workload, options);
}

void validate_transactions(const ResourceCatalog& catalog,
                           const std::vector<Transaction>& transactions) {
  Workload workload;
  workload.transactions = transactions;
  validate_workload(catalog, workload);
}

}  // namespace rtlb
