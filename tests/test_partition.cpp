#include <gtest/gtest.h>

#include "src/common/random.hpp"
#include "src/core/partition.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {
namespace {

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() : app_(cat_) { p_ = cat_.add_processor_type("P"); }

  TaskId add(Time est, Time lct) {
    Task t;
    t.name = "t" + std::to_string(app_.num_tasks());
    t.comp = 1;
    t.release = est;
    t.deadline = lct;
    t.proc = p_;
    const TaskId id = app_.add_task(std::move(t));
    windows_.est.push_back(est);
    windows_.lct.push_back(lct);
    windows_.merged_pred.emplace_back();
    windows_.merged_succ.emplace_back();
    return id;
  }

  ResourceCatalog cat_;
  Application app_;
  TaskWindows windows_;
  ResourceId p_;
};

TEST_F(PartitionTest, DisjointWindowsSplit) {
  add(0, 5);
  add(6, 10);
  add(11, 20);
  const ResourcePartition part = partition_tasks(app_, windows_, p_);
  ASSERT_EQ(part.blocks.size(), 3u);
  EXPECT_EQ(part.blocks[0].tasks, std::vector<TaskId>{0});
  EXPECT_EQ(part.blocks[1].tasks, std::vector<TaskId>{1});
  EXPECT_EQ(part.blocks[2].tasks, std::vector<TaskId>{2});
  EXPECT_TRUE(is_valid_partition(app_, windows_, part));
}

TEST_F(PartitionTest, OverlappingWindowsStayTogether) {
  add(0, 10);
  add(5, 15);
  add(9, 20);
  const ResourcePartition part = partition_tasks(app_, windows_, p_);
  ASSERT_EQ(part.blocks.size(), 1u);
  EXPECT_EQ(part.blocks[0].tasks.size(), 3u);
  EXPECT_EQ(part.blocks[0].start, 0);
  EXPECT_EQ(part.blocks[0].finish, 20);
  EXPECT_TRUE(is_valid_partition(app_, windows_, part));
}

TEST_F(PartitionTest, TouchingWindowsSplit) {
  // E_i == max L_j: Figure 4's strict '<' opens a new block.
  add(0, 5);
  add(5, 9);
  const ResourcePartition part = partition_tasks(app_, windows_, p_);
  EXPECT_EQ(part.blocks.size(), 2u);
  EXPECT_TRUE(is_valid_partition(app_, windows_, part));
}

TEST_F(PartitionTest, ChainedOverlapMergesTransitively) {
  // [0,4] and [8,12] are disjoint but [3,9] bridges them.
  add(0, 4);
  add(8, 12);
  add(3, 9);
  const ResourcePartition part = partition_tasks(app_, windows_, p_);
  ASSERT_EQ(part.blocks.size(), 1u);
  EXPECT_TRUE(is_valid_partition(app_, windows_, part));
}

TEST_F(PartitionTest, EmptyResourceGivesEmptyPartition) {
  const ResourceId unused = cat_.add_resource("unused");
  add(0, 5);
  const ResourcePartition part = partition_tasks(app_, windows_, unused);
  EXPECT_TRUE(part.blocks.empty());
}

TEST_F(PartitionTest, OnePassBucketingMatchesThePerResourceScan) {
  // partition_all buckets ST_r for every r in one pass over the tasks; it
  // must equal partition_tasks over resource_set(). The cases a per-task
  // pass can get wrong: a record listing a resource twice or its own
  // phi_i (add_task normalizes R_i, so only a later edit of the task can
  // leave one), and catalog entries no task uses (no partition at all).
  const ResourceId bus = cat_.add_resource("bus");
  cat_.add_resource("unused");
  cat_.add_processor_type("idle");
  add(0, 5);
  add(3, 9);
  add(12, 20);
  app_.task(0).resources = {bus, bus};
  app_.task(1).resources = {p_, bus, p_};
  app_.task(2).resources = {bus, p_};

  std::vector<ResourcePartition> per_resource;
  for (ResourceId r : app_.resource_set()) {
    per_resource.push_back(partition_tasks(app_, windows_, r));
  }
  const std::vector<ResourcePartition> all = partition_all(app_, windows_);
  EXPECT_EQ(all, per_resource);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].resource, p_);
  EXPECT_EQ(all[1].resource, bus);
  for (const ResourcePartition& part : all) {
    EXPECT_TRUE(is_valid_partition(app_, windows_, part)) << part.resource;
  }
  const std::vector<std::vector<TaskId>> st = app_.tasks_by_resource();
  ASSERT_EQ(st.size(), cat_.size());
  for (ResourceId r = 0; r < cat_.size(); ++r) {
    EXPECT_EQ(st[r], app_.tasks_using(r)) << "resource " << r;
  }
}

TEST_F(PartitionTest, ValidatorCatchesBadPartition) {
  add(0, 5);
  add(6, 10);
  ResourcePartition bogus;
  bogus.resource = p_;
  // One block missing a task.
  bogus.blocks.push_back(PartitionBlock{{0}, 0, 5});
  EXPECT_FALSE(is_valid_partition(app_, windows_, bogus));
  // Duplicated task.
  bogus.blocks.push_back(PartitionBlock{{0, 1}, 0, 10});
  EXPECT_FALSE(is_valid_partition(app_, windows_, bogus));
}

TEST(PartitionRandom, AllPartitionsValidOnGeneratedWorkloads) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.num_tasks = 30;
    params.laxity = 1.5 + 0.2 * static_cast<double>(seed % 3);
    ProblemInstance inst = generate_workload(params);
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(*inst.app, oracle);
    for (const ResourcePartition& part : partition_all(*inst.app, w)) {
      EXPECT_TRUE(is_valid_partition(*inst.app, w, part))
          << "seed " << seed << " resource " << part.resource;
    }
    // partition_blocks on task sets that are no resource's ST_r (the joint
    // bounds scan such sets): conditions (i)-(iii) must hold all the same.
    Rng rng(seed);
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<TaskId> subset;
      for (TaskId i = 0; i < inst.app->num_tasks(); ++i) {
        if (rng.chance(0.4)) subset.push_back(i);
      }
      const std::vector<PartitionBlock> blocks = partition_blocks(w, subset);
      EXPECT_EQ(blocks.empty(), subset.empty());
      EXPECT_TRUE(is_valid_partition(w, blocks, subset)) << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(PartitionPaper, MatchesSectionEight) {
  ProblemInstance inst = paper_example();
  DedicatedMergeOracle oracle(inst.platform);
  const TaskWindows w = compute_windows(*inst.app, oracle);
  for (const ResourcePartition& part : partition_all(*inst.app, w)) {
    EXPECT_TRUE(is_valid_partition(*inst.app, w, part));
  }
}

}  // namespace
}  // namespace rtlb
