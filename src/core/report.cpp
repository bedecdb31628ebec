#include "src/core/report.hpp"

#include "src/obs/trace.hpp"

namespace rtlb {

namespace {

void task_names(JsonWriter& w, const Application& app, const std::vector<TaskId>& ids) {
  w.begin_array();
  for (TaskId t : ids) w.value(app.task(t).name);
  w.end_array();
}

/// The report's members, in an object left open for the caller's own tail.
void write_report(JsonWriter& w, const Application& app, const AnalysisResult& result) {
  const ResourceCatalog& cat = app.catalog();
  w.begin_object().key("tasks").begin_array();
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    const Task& t = app.task(i);
    w.begin_object()
        .field("name", t.name)
        .field("comp", t.comp)
        .field("release", t.release)
        .field("deadline", t.deadline)
        .field("proc", cat.name(t.proc))
        .field("preemptive", t.preemptive)
        .field("est", result.windows.est[i])
        .field("lct", result.windows.lct[i])
        .key("merged_pred");
    task_names(w, app, result.windows.merged_pred[i]);
    task_names(w.key("merged_succ"), app, result.windows.merged_succ[i]);
    w.key("resources").begin_array();
    for (ResourceId r : t.resources) w.value(cat.name(r));
    w.end_array().end_object();
  }
  w.end_array();

  w.key("partitions").begin_array();
  for (const ResourcePartition& p : result.partitions) {
    w.begin_object().field("resource", cat.name(p.resource)).key("blocks").begin_array();
    for (const PartitionBlock& b : p.blocks) {
      w.begin_object().field("start", b.start).field("finish", b.finish).key("tasks");
      task_names(w, app, b.tasks);
      w.end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();

  w.key("bounds").begin_array();
  for (const ResourceBound& b : result.bounds) {
    w.begin_object()
        .field("resource", cat.name(b.resource))
        .field("bound", b.bound)
        .field("peak_density_num", b.peak_density.num)
        .field("peak_density_den", b.peak_density.den)
        .field("witness_t1", b.witness_t1)
        .field("witness_t2", b.witness_t2)
        .field("witness_demand", b.witness_demand)
        .field("intervals_evaluated", static_cast<std::int64_t>(b.intervals_evaluated))
        .end_object();
  }
  w.end_array();

  w.key("lower_bound_engine")
      .begin_object()
      .field("use_partitioning", result.lb_options.use_partitioning)
      .field("num_threads", result.lb_options.num_threads)
      .field("enable_pruning", result.lb_options.enable_pruning)
      .end_object();

  w.key("shared_cost").begin_object().field("total", result.shared_cost.total);
  w.key("terms").begin_array();
  for (const SharedCostBound::Term& term : result.shared_cost.terms) {
    w.begin_object()
        .field("resource", cat.name(term.resource))
        .field("units", term.units)
        .field("unit_cost", term.unit_cost)
        .end_object();
  }
  w.end_array().end_object();

  if (result.dedicated_cost) {
    w.key("dedicated_cost")
        .begin_object()
        .field("feasible", result.dedicated_cost->feasible)
        .field("total", result.dedicated_cost->total)
        .field("relaxation", result.dedicated_cost->relaxation)
        .field("ilp_nodes", result.dedicated_cost->ilp_nodes)
        .key("node_counts")
        .begin_array();
    for (std::int64_t c : result.dedicated_cost->node_counts) w.value(c);
    w.end_array().end_object();
  }

  if (result.lint) w.field("lint", lint_json(*result.lint));

  // Certificate verdict: "emitted" whenever the layer ran; "valid" only when
  // the independent checker re-judged the result (an invalid verdict never
  // reaches a report -- analyze() throws instead -- so false here can only
  // come from a caller running the checker by hand on a foreign result).
  if (result.certificate) {
    w.key("certificate").begin_object().field("emitted", true);
    if (result.certificate_check) {
      w.field("checked", true).field("valid", result.certificate_check->valid);
      w.key("failures").begin_array();
      for (const CheckFailure& f : result.certificate_check->failures) {
        w.begin_object()
            .field("stage", f.stage)
            .field("rule", f.rule)
            .field("subject", f.subject)
            .field("detail", f.detail)
            .end_object();
      }
      w.end_array();
    } else {
      w.field("checked", false);
    }
    w.end_object();
  }

  w.field("infeasible", result.infeasible(app));
}

}  // namespace

JsonRender report_json(const Application& app, const AnalysisResult& result) {
  return report_json(app, result, nullptr);
}

JsonRender report_json(const Application& app, const AnalysisResult& result,
                       const Trace* trace) {
  return JsonRender([&app, &result, trace](JsonWriter& w) {
    write_report(w, app, result);
    if (trace != nullptr) w.field("timing", trace->json());
    w.end_object();
  });
}

std::string report_string(const Application& app, const AnalysisResult& result) {
  return report_json(app, result).dump(2);
}

JsonRender session_stats_json(const SessionStats& stats) {
  return JsonRender([stats](JsonWriter& w) {
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"queries", stats.queries}, {"query_hits", stats.query_hits},
        {"gate_runs", stats.gate_runs}, {"lint_pass_hits", stats.lint_pass_hits},
        {"lint_pass_misses", stats.lint_pass_misses}, {"window_hits", stats.window_hits},
        {"window_misses", stats.window_misses}, {"partition_hits", stats.partition_hits},
        {"partition_misses", stats.partition_misses}, {"bound_hits", stats.bound_hits},
        {"bound_misses", stats.bound_misses}, {"block_hits", stats.block_hits},
        {"block_misses", stats.block_misses}, {"joint_hits", stats.joint_hits},
        {"joint_misses", stats.joint_misses}, {"cost_hits", stats.cost_hits},
        {"cost_misses", stats.cost_misses}, {"verified", stats.verified}};
    w.begin_object();
    for (const auto& [name, value] : counters) w.field(name, static_cast<std::int64_t>(value));
    w.end_object();
  });
}

JsonRender report_json(AnalysisSession& session) {
  const AnalysisResult& result = session.analyze();
  return JsonRender([&app = session.app(), &result, stats = session.stats()](JsonWriter& w) {
    write_report(w, app, result);
    w.field("session", session_stats_json(stats)).end_object();
  });
}

}  // namespace rtlb
