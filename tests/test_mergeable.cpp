#include <gtest/gtest.h>

#include "src/core/mergeable.hpp"
#include "tests/wide_menu.hpp"

namespace rtlb {
namespace {

class MergeableTest : public ::testing::Test {
 protected:
  MergeableTest() : app_(cat_) {
    p1_ = cat_.add_processor_type("P1");
    p2_ = cat_.add_processor_type("P2");
    a_ = cat_.add_resource("a");
    b_ = cat_.add_resource("b");
    plat_.add_node_type(NodeType{"P1+a", p1_, {{a_, 1}}, 1});
    plat_.add_node_type(NodeType{"P2+b", p2_, {{b_, 1}}, 1});
  }

  TaskId add(ResourceId proc, std::vector<ResourceId> res) {
    Task t;
    t.name = "t" + std::to_string(app_.num_tasks());
    t.comp = 1;
    t.deadline = 100;
    t.proc = proc;
    t.resources = std::move(res);
    return app_.add_task(std::move(t));
  }

  ResourceCatalog cat_;
  Application app_;
  DedicatedPlatform plat_;
  ResourceId p1_, p2_, a_, b_;
};

TEST_F(MergeableTest, SharedRequiresSameProcType) {
  SharedMergeOracle oracle;
  const TaskId x = add(p1_, {});
  const TaskId y = add(p1_, {a_});
  const TaskId z = add(p2_, {});
  const TaskId xy[] = {x, y};
  const TaskId xz[] = {x, z};
  EXPECT_TRUE(oracle.mergeable(app_, xy));
  EXPECT_FALSE(oracle.mergeable(app_, xz));
}

TEST_F(MergeableTest, SingletonsAndEmptyAlwaysMergeable) {
  SharedMergeOracle shared;
  DedicatedMergeOracle dedicated(plat_);
  const TaskId x = add(p1_, {a_});
  const TaskId one[] = {x};
  EXPECT_TRUE(shared.mergeable(app_, one));
  EXPECT_TRUE(dedicated.mergeable(app_, one));
  EXPECT_TRUE(shared.mergeable(app_, {}));
  EXPECT_TRUE(dedicated.mergeable(app_, {}));
}

TEST_F(MergeableTest, DedicatedRequiresCoveringNode) {
  DedicatedMergeOracle oracle(plat_);
  const TaskId x = add(p1_, {});
  const TaskId y = add(p1_, {a_});
  const TaskId w = add(p1_, {b_});  // no P1 node carries b
  const TaskId xy[] = {x, y};
  const TaskId xw[] = {x, w};
  EXPECT_TRUE(oracle.mergeable(app_, xy));
  EXPECT_FALSE(oracle.mergeable(app_, xw));
}

TEST_F(MergeableTest, DedicatedUnionTest) {
  // Individually hostable tasks whose union exceeds every node.
  DedicatedPlatform plat;
  plat.add_node_type(NodeType{"P1+a", p1_, {{a_, 1}}, 1});
  plat.add_node_type(NodeType{"P1+b", p1_, {{b_, 1}}, 1});
  DedicatedMergeOracle oracle(plat);
  const TaskId x = add(p1_, {a_});
  const TaskId y = add(p1_, {b_});
  const TaskId xs[] = {x};
  const TaskId ys[] = {y};
  const TaskId both[] = {x, y};
  EXPECT_TRUE(oracle.mergeable(app_, xs));
  EXPECT_TRUE(oracle.mergeable(app_, ys));
  EXPECT_FALSE(oracle.mergeable(app_, both));  // needs {a, b} on one node
}

TEST_F(MergeableTest, DedicatedStillRequiresSameProcType) {
  DedicatedPlatform plat;
  plat.add_node_type(NodeType{"P1all", p1_, {{a_, 1}, {b_, 1}}, 1});
  DedicatedMergeOracle oracle(plat);
  const TaskId x = add(p1_, {a_});
  const TaskId z = add(p2_, {});
  const TaskId xz[] = {x, z};
  EXPECT_FALSE(oracle.mergeable(app_, xz));
}

// A menu wider than one mask word: merging x with y needs node type 69, in
// word 1. On every ordered triple of distinct tasks, each cursor step agrees
// with mergeable() on the grown set, with and without that node type.
TEST(MergeableWideMenu, CursorAgreesWithMergeablePastTheFirstMaskWord) {
  WideMenu m;
  ASSERT_EQ(m.wide.mask_words(), 2u);
  ASSERT_EQ(m.narrow.mask_words(), 2u);
  const TaskId xy[] = {m.x, m.y};
  const TaskId all[] = {m.x, m.y, m.i, m.u, m.v};
  for (const DedicatedPlatform* plat : {&m.wide, &m.narrow}) {
    DedicatedMergeOracle oracle(*plat);
    EXPECT_EQ(oracle.mergeable(m.app, xy), plat == &m.wide);
    const auto cursor = oracle.cursor(m.app);
    for (TaskId s : all) {
      for (TaskId t : all) {
        for (TaskId w : all) {
          if (s == t || s == w || t == w) continue;
          std::vector<TaskId> set{s};
          cursor->reset(s);
          for (TaskId next : {t, w}) {
            std::vector<TaskId> grown = set;
            grown.push_back(next);
            const bool merged = cursor->try_add(next);
            EXPECT_EQ(merged, oracle.mergeable(m.app, grown)) << s << " " << t << " " << w;
            if (merged) set = std::move(grown);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rtlb
