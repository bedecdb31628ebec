// The standard lint passes, individually callable (Application::validate()
// runs structural_lint_pass alone; the Linter runs all of them in order).
// Each pass appends to the sink and never mutates the model.
#pragma once

#include <string>
#include <vector>

#include "src/lint/linter.hpp"

namespace rtlb {

/// The subjects findings name: "task 'alert' (#2)", "edge a -> b", and a
/// chain "a -> b -> #7" (a task without a name shows as its id).
std::string task_subject(const Application& app, TaskId i);
std::string edge_subject(const Application& app, TaskId from, TaskId to);
std::string chain_names(const Application& app, const std::vector<TaskId>& chain);

/// A registry-backed finding about task i (sink.make()): its subject, task
/// id and declaration line filled in.
Diagnostic task_finding(const LintContext& ctx, const DiagnosticSink& sink, const char* code,
                        TaskId i, std::string message = "");

/// RTLB-E001..E009: per-task scalar checks (computation time, catalog ids,
/// release/deadline window), duplicate non-empty task names, precedence
/// cycles. Subsumes every check of the historical Application::validate();
/// the diagnostic wording is the single source of truth for both paths.
void structural_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-E101/W102: EST/LCT-derived window collapse (Theorems 1-2 certify
/// that a negative slack is infeasible on ANY system) and zero-slack
/// non-preemptive tasks. Requires ctx.windows.
void temporal_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-W201/E202/W203: catalog resources no task references; dedicated
/// model -- tasks no node type can host (Eq. 7.2 infeasible) and node types
/// that host nothing.
void platform_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-E301/W302: per-resource demand sums that overflow Time, and task
/// timings beyond kTimeMax.
void numeric_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-W401/N402/N403: isolated tasks (in a DAG that has edges), zero-size
/// messages, single-block partitions. Requires ctx.windows for N403, which
/// reads ctx.partitions (or partitions the windows itself when it is null).
void hygiene_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

}  // namespace rtlb
