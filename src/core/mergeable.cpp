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

/// Fallback cursor: materialize the set and re-ask mergeable() per step.
class GenericCursor final : public MergeOracle::Cursor {
 public:
  GenericCursor(const MergeOracle& oracle, const Application& app)
      : oracle_(&oracle), app_(&app) {}

  void reset(TaskId seed) override {
    set_.clear();
    set_.push_back(seed);
  }

  bool try_add(TaskId t) override {
    set_.push_back(t);
    if (oracle_->mergeable(*app_, set_)) return true;
    set_.pop_back();
    return false;
  }

 private:
  const MergeOracle* oracle_;
  const Application* app_;
  std::vector<TaskId> set_;
};

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
/// `masks` holds one row of `acc_.size()` words per task, shared by every
/// cursor of one cursors() call.
class DedicatedCursor final : public MergeOracle::Cursor {
 public:
  DedicatedCursor(std::shared_ptr<const std::vector<std::uint64_t>> masks, std::size_t words)
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
  const std::uint64_t* row(TaskId t) const { return masks_->data() + t * acc_.size(); }

  std::shared_ptr<const std::vector<std::uint64_t>> masks_;
  std::vector<std::uint64_t> acc_;
};

/// `count` cursors of type C, each constructed from `args`.
template <class C, class... Args>
std::vector<std::unique_ptr<MergeOracle::Cursor>> make_cursors(std::size_t count,
                                                               const Args&... args) {
  std::vector<std::unique_ptr<MergeOracle::Cursor>> out;
  for (std::size_t c = 0; c < count; ++c) out.push_back(std::make_unique<C>(args...));
  return out;
}

}  // namespace

std::vector<std::unique_ptr<MergeOracle::Cursor>> MergeOracle::cursors(
    const Application& app, std::size_t count) const {
  return make_cursors<GenericCursor>(count, *this, app);
}

bool SharedMergeOracle::mergeable(const Application& app, std::span<const TaskId> tasks) const {
  return tasks.size() <= 1 || same_proc_type(app, tasks);
}

std::vector<std::unique_ptr<MergeOracle::Cursor>> SharedMergeOracle::cursors(
    const Application& app, std::size_t count) const {
  return make_cursors<SharedCursor>(count, app);
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

std::vector<std::unique_ptr<MergeOracle::Cursor>> DedicatedMergeOracle::cursors(
    const Application& app, std::size_t count) const {
  const std::size_t words = platform_->mask_words();
  auto masks = std::make_shared<std::vector<std::uint64_t>>();
  masks->reserve(app.num_tasks() * words);
  for (TaskId t = 0; t < app.num_tasks(); ++t) {
    const std::vector<std::uint64_t> mask =
        platform_->host_mask(app.task(t).proc, app.task(t).resources);
    masks->insert(masks->end(), mask.begin(), mask.end());
  }
  return make_cursors<DedicatedCursor>(count, masks, words);
}

}  // namespace rtlb
