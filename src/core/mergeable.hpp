// Mergeability (Definitions 1 and 2).
//
// A set of tasks is "mergeable" if they could all be co-located on one
// processor (shared model) or one node (dedicated model). The EST/LCT
// algorithms in est_lct.cpp are written against this oracle so that both
// system models share one implementation.
//
// Two query shapes are offered:
//  - mergeable(): judge an arbitrary materialized set in one call.
//  - cursor(): incremental membership tests for the greedy merge loops of
//    Figures 2 and 3, whose candidate sets grow by exactly one task per
//    step. A cursor carries the set state (processor type, or the running
//    AND of the members' node-type host masks) across steps, so each
//    extension costs O(1) shared / O(node types / 64) dedicated instead of
//    re-deriving the whole union. try_add(t) answers exactly
//    mergeable(current set + {t}), by definition.
#pragma once

#include <memory>
#include <span>

#include "src/model/application.hpp"
#include "src/model/platform.hpp"

namespace rtlb {

class MergeOracle {
 public:
  virtual ~MergeOracle() = default;

  /// True iff the tasks could all execute on the same processor/node.
  /// Singleton and empty sets are always mergeable.
  virtual bool mergeable(const Application& app, std::span<const TaskId> tasks) const = 0;

  /// Incremental membership test over a growing set.
  class Cursor {
   public:
    virtual ~Cursor() = default;

    /// Restart the set as {seed}.
    virtual void reset(TaskId seed) = 0;

    /// If (current set + {t}) is mergeable, commit the extension and return
    /// true; otherwise leave the set unchanged and return false.
    virtual bool try_add(TaskId t) = 0;
  };

  /// A cursor over per-application tables built once per call (the
  /// windows engine asks for one per sweep). The oracle (and `app`) must
  /// outlive it.
  virtual std::unique_ptr<Cursor> cursor(const Application& app) const = 0;
};

/// Definition 1: mergeable iff all tasks share a processor type.
class SharedMergeOracle final : public MergeOracle {
 public:
  bool mergeable(const Application& app, std::span<const TaskId> tasks) const override;
  std::unique_ptr<Cursor> cursor(const Application& app) const override;
};

/// Definition 2: mergeable iff all tasks share a processor type AND some node
/// type carries that processor plus the union of their resource sets, i.e.
/// iff the AND of the tasks' DedicatedPlatform::host_mask is non-zero.
class DedicatedMergeOracle final : public MergeOracle {
 public:
  /// The platform must outlive the oracle.
  explicit DedicatedMergeOracle(const DedicatedPlatform& platform) : platform_(&platform) {}

  bool mergeable(const Application& app, std::span<const TaskId> tasks) const override;
  std::unique_ptr<Cursor> cursor(const Application& app) const override;

 private:
  const DedicatedPlatform* platform_;
};

}  // namespace rtlb
