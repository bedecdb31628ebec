#include "src/core/partition.hpp"

#include <algorithm>

namespace rtlb {

std::vector<PartitionBlock> partition_blocks(const TaskWindows& windows,
                                             std::vector<TaskId> tasks) {
  // Figure 4 step 1: ascending EST (ties by id for determinism).
  std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
    if (windows.est[a] != windows.est[b]) return windows.est[a] < windows.est[b];
    return a < b;
  });

  std::vector<PartitionBlock> blocks;
  for (TaskId i : tasks) {
    // E_i < max_{j in P_rk} L_j joins the open block; anything else opens
    // the next one. Tasks arrive in ascending EST, so a block starts at its
    // first task's E.
    if (blocks.empty() || windows.est[i] >= blocks.back().finish) {
      blocks.push_back({{}, windows.est[i], windows.lct[i]});
    }
    PartitionBlock& block = blocks.back();
    block.tasks.push_back(i);
    block.finish = std::max(block.finish, windows.lct[i]);
  }
  return blocks;
}

ResourcePartition partition_tasks(const Application& app, const TaskWindows& windows,
                                  ResourceId r) {
  return {r, partition_blocks(windows, app.tasks_using(r))};
}

std::vector<ResourcePartition> partition_all(const Application& app,
                                             const TaskWindows& windows) {
  std::vector<std::vector<TaskId>> st = app.tasks_by_resource();
  std::vector<ResourcePartition> out;
  for (ResourceId r = 0; r < st.size(); ++r) {
    if (!st[r].empty()) out.push_back({r, partition_blocks(windows, std::move(st[r]))});
  }
  return out;
}

bool is_valid_partition(const TaskWindows& windows, std::span<const PartitionBlock> blocks,
                        std::vector<TaskId> tasks) {
  // (i) blocks cover the task set and (ii) are disjoint.
  std::vector<TaskId> covered;
  for (const PartitionBlock& b : blocks) {
    covered.insert(covered.end(), b.tasks.begin(), b.tasks.end());
  }
  std::sort(covered.begin(), covered.end());
  if (std::adjacent_find(covered.begin(), covered.end()) != covered.end()) return false;
  std::sort(tasks.begin(), tasks.end());
  if (covered != tasks) return false;

  // (iii) ordering: max L of block k <= min E of every later block, and the
  // cached [start, finish] windows are consistent.
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const PartitionBlock& b = blocks[k];
    if (b.tasks.empty()) return false;
    Time lo = kTimeMax, hi = kTimeMin;
    for (TaskId i : b.tasks) {
      lo = std::min(lo, windows.est[i]);
      hi = std::max(hi, windows.lct[i]);
    }
    if (lo != b.start || hi != b.finish) return false;
    for (std::size_t l = k + 1; l < blocks.size(); ++l) {
      for (TaskId j : blocks[l].tasks) {
        if (windows.est[j] < hi) return false;
      }
    }
  }
  return true;
}

bool is_valid_partition(const Application& app, const TaskWindows& windows,
                        const ResourcePartition& partition) {
  return is_valid_partition(windows, partition.blocks, app.tasks_using(partition.resource));
}

}  // namespace rtlb
