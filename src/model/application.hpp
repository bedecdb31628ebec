// The real-time application model of Section 2.1: a DAG of annotated tasks
// with message sizes on edges.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/graph/dag.hpp"
#include "src/model/platform.hpp"
#include "src/model/task.hpp"

namespace rtlb {

class Application {
 public:
  /// The catalog must outlive the application; it resolves every ResourceId.
  explicit Application(const ResourceCatalog& catalog) : catalog_(&catalog) {}

  /// Add a task. `task.resources` is canonicalized (sorted, deduplicated).
  TaskId add_task(Task task);

  /// Add precedence edge from -> to carrying a message of `msg_size` ticks
  /// (m_{from,to}; the transfer latency if the two tasks are on different
  /// processors/nodes).
  void add_edge(TaskId from, TaskId to, Time msg_size);

  /// Capacity for `tasks` tasks, and for task i's `succ` successor and
  /// `pred` predecessor edges (a parser that counted them first).
  void reserve(std::size_t tasks);
  void reserve_edges(TaskId i, std::size_t succ, std::size_t pred);

  std::size_t num_tasks() const { return tasks_.size(); }
  const Task& task(TaskId i) const { return tasks_[i]; }
  Task& task(TaskId i) { return tasks_[i]; }
  const std::vector<Task>& tasks() const { return tasks_; }

  const Dag& dag() const { return dag_; }
  const ResourceCatalog& catalog() const { return *catalog_; }

  /// Pred_i / Succ_i as task ids.
  const std::vector<std::uint32_t>& predecessors(TaskId i) const { return dag_.predecessors(i); }
  const std::vector<std::uint32_t>& successors(TaskId i) const { return dag_.successors(i); }

  /// Edge messages aligned with the adjacency lists: successor_messages(i)[k]
  /// is m_{i, successors(i)[k]}, predecessor_messages(i)[k] is
  /// m_{predecessors(i)[k], i}. Hot loops walking adjacency read these.
  std::span<const Time> successor_messages(TaskId i) const {
    return {msg_[i].data(), successors(i).size()};
  }
  std::span<const Time> predecessor_messages(TaskId i) const {
    return {msg_[i].data() + successors(i).size(), predecessors(i).size()};
  }

  /// m_{ji}: message size on edge j -> i. Edge must exist. A scan of the
  /// shorter adjacency list, for cold callers.
  Time message(TaskId from, TaskId to) const;

  /// Resize the message on an EXISTING edge (ModelError otherwise) -- the
  /// delta the sensitivity sweeps and AnalysisSession apply; the DAG shape
  /// never changes after construction.
  void set_message(TaskId from, TaskId to, Time msg_size);

  /// RES = union over tasks of (R_i u {phi_i}), ascending ids.
  std::vector<ResourceId> resource_set() const;

  /// ST_r: ids of the tasks that use r (as processor type or resource),
  /// ascending.
  std::vector<TaskId> tasks_using(ResourceId r) const;

  /// ST_r for every catalog entry r, in one pass over the tasks: entry r
  /// equals tasks_using(r) (empty when no task uses r), so the non-empty
  /// entries are exactly resource_set(). A task counts once per r even if
  /// its record lists r twice or lists its own phi_i as a resource.
  /// Requires valid catalog ids.
  std::vector<std::vector<TaskId>> tasks_by_resource() const;

  /// Total computation demand placed on r by ST_r.
  Time total_demand(ResourceId r) const;

  /// Find a task by name; kInvalidTask if absent.
  TaskId find_task(std::string_view name) const;

  /// Throws ModelError on the first structural violation: non-positive comp,
  /// release/deadline inversion, deadline window smaller than comp, invalid
  /// resource ids, processor id that is not a processor type, duplicate
  /// non-empty task names, or a cyclic edge set. Implemented on top of the
  /// structural lint pass (src/lint/passes.hpp); use rtlb::lint() to get ALL
  /// violations as batched diagnostics instead of the first one.
  void validate() const;

 private:
  const ResourceCatalog* catalog_;
  std::vector<Task> tasks_;
  Dag dag_;
  /// msg_[i]: task i's successor messages, then its predecessor messages
  /// (one allocation per task, not one per direction).
  std::vector<std::vector<Time>> msg_;
};

}  // namespace rtlb
