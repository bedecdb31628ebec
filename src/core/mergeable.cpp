#include "src/core/mergeable.hpp"

#include <algorithm>
#include <vector>

namespace rtlb {

namespace {

/// All tasks on the same processor type (Definition 1).
bool same_proc_type(const Application& app, std::span<const TaskId> tasks) {
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    if (app.task(tasks[i]).proc != app.task(tasks[0]).proc) return false;
  }
  return true;
}

/// Definition 1 incrementally: only the seed's processor type matters.
class SharedCursor final : public MergeOracle::Cursor {
 public:
  explicit SharedCursor(const Application& app) : app_(&app) {}

  void reset(TaskId seed) override { proc_ = app_->task(seed).proc; }

  bool try_add(TaskId t) override { return app_->task(t).proc == proc_; }

 private:
  const Application* app_;
  ResourceId proc_ = kInvalidResource;
};

/// Definition 2 incrementally: the running AND of the members' host masks.
/// `masks` holds one row of `acc_.size()` words per task.
class DedicatedCursor final : public MergeOracle::Cursor {
 public:
  DedicatedCursor(std::vector<std::uint64_t> masks, std::size_t words)
      : masks_(std::move(masks)), acc_(words) {}

  void reset(TaskId seed) override { std::copy_n(row(seed), acc_.size(), acc_.begin()); }

  bool try_add(TaskId t) override {
    const std::uint64_t* mask = row(t);
    std::uint64_t common = 0;
    for (std::size_t w = 0; w < acc_.size(); ++w) common |= acc_[w] & mask[w];
    if (common == 0) return false;
    for (std::size_t w = 0; w < acc_.size(); ++w) acc_[w] &= mask[w];
    return true;
  }

 private:
  const std::uint64_t* row(TaskId t) const { return masks_.data() + t * acc_.size(); }

  std::vector<std::uint64_t> masks_;
  std::vector<std::uint64_t> acc_;
};

}  // namespace

bool SharedMergeOracle::mergeable(const Application& app, std::span<const TaskId> tasks) const {
  return tasks.size() <= 1 || same_proc_type(app, tasks);
}

std::unique_ptr<MergeOracle::Cursor> SharedMergeOracle::cursor(const Application& app) const {
  return std::make_unique<SharedCursor>(app);
}

bool DedicatedMergeOracle::mergeable(const Application& app,
                                     std::span<const TaskId> tasks) const {
  if (tasks.empty()) return true;
  std::vector<std::uint64_t> common(platform_->mask_words(), ~std::uint64_t{0});
  for (TaskId t : tasks) {
    const std::vector<std::uint64_t> mask =
        platform_->host_mask(app.task(t).proc, app.task(t).resources);
    for (std::size_t w = 0; w < common.size(); ++w) common[w] &= mask[w];
  }
  return std::any_of(common.begin(), common.end(), [](std::uint64_t w) { return w != 0; });
}

std::unique_ptr<MergeOracle::Cursor> DedicatedMergeOracle::cursor(
    const Application& app) const {
  const std::size_t words = platform_->mask_words();
  std::vector<std::uint64_t> masks;
  masks.reserve(app.num_tasks() * words);
  for (TaskId t = 0; t < app.num_tasks(); ++t) {
    const std::vector<std::uint64_t> mask =
        platform_->host_mask(app.task(t).proc, app.task(t).resources);
    masks.insert(masks.end(), mask.begin(), mask.end());
  }
  return std::make_unique<DedicatedCursor>(std::move(masks), words);
}

}  // namespace rtlb
