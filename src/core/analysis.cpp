#include "src/core/analysis.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/strings.hpp"
#include "src/common/table.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/recurrent.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {

void AnalysisResult::rebuild_bound_index() {
  bound_index.clear();
  bound_index.reserve(bounds.size());
  for (const ResourceBound& b : bounds) bound_index.emplace_back(b.resource, b.bound);
  std::sort(bound_index.begin(), bound_index.end());
}

std::optional<std::int64_t> AnalysisResult::bound_for(ResourceId r) const {
  if (bound_index.size() == bounds.size()) {
    const auto it = std::lower_bound(
        bound_index.begin(), bound_index.end(), r,
        [](const std::pair<ResourceId, std::int64_t>& entry, ResourceId key) {
          return entry.first < key;
        });
    if (it != bound_index.end() && it->first == r) return it->second;
    return std::nullopt;
  }
  // Hand-assembled result that never went through the pipeline: fall back
  // to the scan rather than trust a stale index.
  for (const ResourceBound& b : bounds) {
    if (b.resource == r) return b.bound;
  }
  return std::nullopt;
}

bool AnalysisResult::infeasible(const Application& app) const {
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    if (windows.slack(app, i) < 0) return true;
  }
  return false;
}

AnalysisResult analyze(const Application& app, const AnalysisOptions& options,
                       const DedicatedPlatform* platform) {
  // Thin driver: the staged sequencing (pre-flight gate, EST/LCT,
  // partitions, bounds, costs, certificate post-stage) lives solely in
  // run_pipeline(); a cold call is the pipeline with nothing to reuse.
  return run_pipeline(app, options, platform);
}

AnalysisResult analyze(const ResourceCatalog& catalog, const Workload& workload,
                       const AnalysisOptions& options, const DedicatedPlatform* platform) {
  if (options.lint_level == LintLevel::kOff) {
    // Historical contract: no batching, first template error throws
    // ModelError from validate_workload() inside the lowering.
    return run_pipeline(lower_workload(catalog, workload), options, platform);
  }
  LintResult wl = lint_workload(catalog, workload, platform);
  // Template errors always refuse: lowering a broken template is
  // meaningless, so E5xx behaves like the structural refusal set even at
  // kReport. Warnings (W510) follow the configured policy.
  if (wl.has_errors() || lint_gate_refuses(wl, options.lint_level)) {
    throw LintGateError(std::move(wl));
  }
  LowerOptions lower;
  lower.validate = false;  // the template batch above IS the validation
  Application app = lower_workload(catalog, workload, lower);
  app.validate();
  AnalysisResult result = run_pipeline(app, options, platform);
  if (result.lint.has_value()) {
    result.lint = merge_lint_results(std::move(wl), std::move(*result.lint));
  } else {
    result.lint = std::move(wl);
  }
  return result;
}

namespace {

std::string task_names(const Application& app, const std::vector<TaskId>& ids) {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (TaskId t : ids) names.push_back(app.task(t).name);
  return brace_set(names);
}

}  // namespace

std::string format_windows_table(const Application& app, const TaskWindows& windows) {
  Table table({"Task i", "E_i", "M_i", "L_i", "G_i"});
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    table.add(app.task(i).name, windows.est[i], task_names(app, windows.merged_pred[i]),
              windows.lct[i], task_names(app, windows.merged_succ[i]));
  }
  return table.to_string();
}

std::string format_partitions(const Application& app,
                              const std::vector<ResourcePartition>& partitions) {
  std::ostringstream out;
  for (const ResourcePartition& p : partitions) {
    out << "ST_" << app.catalog().name(p.resource) << " = ";
    for (std::size_t k = 0; k < p.blocks.size(); ++k) {
      if (k) out << " < ";
      std::vector<std::string> names;
      for (TaskId t : p.blocks[k].tasks) names.push_back(app.task(t).name);
      out << "{" << join(names, ",") << "}";
    }
    if (p.blocks.empty()) out << "{}";
    out << "\n";
  }
  return out.str();
}

std::string format_bounds(const Application& app, const std::vector<ResourceBound>& bounds) {
  Table table({"Resource r", "LB_r", "peak density", "witness [t1,t2]", "Theta"});
  for (const ResourceBound& b : bounds) {
    std::ostringstream density;
    density << b.peak_density.num << "/" << b.peak_density.den;
    std::ostringstream witness;
    witness << "[" << b.witness_t1 << "," << b.witness_t2 << "]";
    table.add(app.catalog().name(b.resource), b.bound, density.str(), witness.str(),
              b.witness_demand);
  }
  return table.to_string();
}

}  // namespace rtlb
