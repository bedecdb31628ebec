// Step 2: partition ST_r into independent blocks (Figure 4, Theorem 5).
//
// The tasks needing resource r are split into blocks P_r1 < P_r2 < ... such
// that every task in an earlier block completes (L_i) no later than any task
// in a later block may start (E_j). Theorem 5 proves the density maximization
// of Eq. 6.3 can then be done per block with no loss of tightness.
#pragma once

#include <span>
#include <vector>

#include "src/core/est_lct.hpp"
#include "src/model/application.hpp"

namespace rtlb {

/// One block of a partition, with its enclosing window [start, finish] =
/// [min E_i, max L_i] over the block's tasks.
struct PartitionBlock {
  std::vector<TaskId> tasks;
  Time start = 0;
  Time finish = 0;

  bool operator==(const PartitionBlock&) const = default;
};

/// The partition of ST_r for one resource.
struct ResourcePartition {
  ResourceId resource = kInvalidResource;
  std::vector<PartitionBlock> blocks;

  bool operator==(const ResourcePartition&) const = default;
};

/// Figure 4 applied to an arbitrary task set: window-disjoint blocks in
/// ascending start order, each block's tasks in ascending (EST, id) order.
/// The one implementation of the split rule; everything below and the bound
/// engine build their blocks through it.
std::vector<PartitionBlock> partition_blocks(const TaskWindows& windows,
                                             std::vector<TaskId> tasks);

/// Figure 4 applied to ST_r.
ResourcePartition partition_tasks(const Application& app, const TaskWindows& windows,
                                  ResourceId r);

/// Partitions for every r in RES, in ascending r; ST_r is bucketed for all
/// r in one pass over the tasks (Application::tasks_by_resource).
std::vector<ResourcePartition> partition_all(const Application& app, const TaskWindows& windows);

/// Test hook: check conditions (i)-(iii) of Section 5 on a partition.
bool is_valid_partition(const Application& app, const TaskWindows& windows,
                        const ResourcePartition& partition);

/// The same checks on blocks that should partition `tasks` (in any order).
bool is_valid_partition(const TaskWindows& windows, std::span<const PartitionBlock> blocks,
                        std::vector<TaskId> tasks);

}  // namespace rtlb
