#include "src/model/application.hpp"

#include <algorithm>

#include "src/lint/passes.hpp"

namespace rtlb {

TaskId Application::add_task(Task task) {
  std::sort(task.resources.begin(), task.resources.end());
  task.resources.erase(std::unique(task.resources.begin(), task.resources.end()),
                       task.resources.end());
  // phi_i is tracked separately; keep R_i free of it so unions stay simple.
  std::erase(task.resources, task.proc);
  tasks_.push_back(std::move(task));
  dag_.grow_to(tasks_.size());
  msg_.resize(tasks_.size());
  return static_cast<TaskId>(tasks_.size() - 1);
}

void Application::add_edge(TaskId from, TaskId to, Time msg_size) {
  RTLB_CHECK(from < tasks_.size() && to < tasks_.size(), "edge endpoint out of range");
  if (msg_size < 0) throw ModelError("negative message size");
  dag_.add_edge(from, to);  // appends to both adjacency lists
  msg_[from].insert(msg_[from].end() - std::ssize(predecessors(from)), msg_size);
  msg_[to].push_back(msg_size);
}

void Application::reserve(std::size_t tasks) {
  tasks_.reserve(tasks);
  dag_.reserve(tasks);
  msg_.reserve(tasks);
}

void Application::reserve_edges(TaskId i, std::size_t succ, std::size_t pred) {
  dag_.reserve_edges(i, succ, pred);
  msg_[i].reserve(succ + pred);
}

namespace {

/// Position of `x` in an adjacency list; list.size() when absent.
std::size_t slot(const std::vector<std::uint32_t>& list, std::uint32_t x) {
  return static_cast<std::size_t>(std::find(list.begin(), list.end(), x) - list.begin());
}

}  // namespace

Time Application::message(TaskId from, TaskId to) const {
  RTLB_CHECK(from < tasks_.size() && to < tasks_.size(), "edge endpoint out of range");
  const auto& succ = successors(from);
  const auto& pred = predecessors(to);
  const bool by_succ = succ.size() <= pred.size();
  const std::size_t k = by_succ ? slot(succ, to) : slot(pred, from);
  RTLB_CHECK(k < (by_succ ? succ.size() : pred.size()), "message queried for a missing edge");
  return by_succ ? msg_[from][k] : msg_[to][successors(to).size() + k];
}

void Application::set_message(TaskId from, TaskId to, Time msg_size) {
  if (from >= tasks_.size() || to >= tasks_.size() || !dag_.has_edge(from, to)) {
    throw ModelError("set_message: no edge " + std::to_string(from) + " -> " +
                     std::to_string(to));
  }
  if (msg_size < 0) throw ModelError("negative message size");
  msg_[from][slot(successors(from), to)] = msg_size;
  msg_[to][successors(to).size() + slot(predecessors(to), from)] = msg_size;
}

std::vector<ResourceId> Application::resource_set() const {
  std::vector<bool> seen(catalog_->size(), false);
  for (const Task& t : tasks_) {
    seen[t.proc] = true;
    for (ResourceId r : t.resources) seen[r] = true;
  }
  std::vector<ResourceId> out;
  for (ResourceId r = 0; r < seen.size(); ++r) {
    if (seen[r]) out.push_back(r);
  }
  return out;
}

std::vector<TaskId> Application::tasks_using(ResourceId r) const {
  std::vector<TaskId> out;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].uses(r)) out.push_back(i);
  }
  return out;
}

std::vector<std::vector<TaskId>> Application::tasks_by_resource() const {
  std::vector<std::vector<TaskId>> st(catalog_->size());
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    // Ids arrive ascending, so a repeat of r within one task is the back.
    auto add = [&](ResourceId r) {
      if (st[r].empty() || st[r].back() != i) st[r].push_back(i);
    };
    add(tasks_[i].proc);
    for (ResourceId r : tasks_[i].resources) add(r);
  }
  return st;
}

Time Application::total_demand(ResourceId r) const {
  Time sum = 0;
  for (const Task& t : tasks_) {
    if (t.uses(r)) sum += t.comp;
  }
  return sum;
}

TaskId Application::find_task(std::string_view name) const {
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name == name) return i;
  }
  return kInvalidTask;
}

void Application::validate() const {
  // Delegates to the structural lint pass (src/lint/passes.hpp) so the
  // error wording and coverage cannot drift between the throwing and the
  // batched-diagnostics paths; validate() keeps its historical first-error
  // contract by throwing the first error-level finding.
  LintResult result;
  DiagnosticSink sink(result, LintOptions{.max_errors = 1});
  structural_lint_pass(LintContext{*this}, sink);
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::kError) continue;
    const std::string message(d.message);
    throw ModelError(d.subject.empty() ? message : d.subject + ": " + message);
  }
}

}  // namespace rtlb
