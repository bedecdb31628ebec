#include <gtest/gtest.h>

#include <map>

#include "src/common/random.hpp"
#include "src/graph/generators.hpp"
#include "src/model/application.hpp"
#include "src/model/platform.hpp"

namespace rtlb {
namespace {

TEST(ResourceCatalog, InternsAndLooksUp) {
  ResourceCatalog cat;
  const ResourceId p = cat.add_processor_type("P1", 5);
  const ResourceId r = cat.add_resource("sensor", 2);
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_TRUE(cat.is_processor(p));
  EXPECT_FALSE(cat.is_processor(r));
  EXPECT_EQ(cat.name(p), "P1");
  EXPECT_EQ(cat.cost(r), 2);
  EXPECT_EQ(cat.find("sensor"), r);
  EXPECT_EQ(cat.find("absent"), kInvalidResource);
  cat.set_cost(r, 9);
  EXPECT_EQ(cat.cost(r), 9);
}

TEST(ResourceCatalog, RejectsDuplicateNames) {
  ResourceCatalog cat;
  cat.add_resource("x");
  EXPECT_THROW(cat.add_resource("x"), ModelError);
  EXPECT_THROW(cat.add_processor_type("x"), ModelError);
}

TEST(NodeType, UnitsAndCoverage) {
  ResourceCatalog cat;
  const ResourceId p = cat.add_processor_type("P");
  const ResourceId a = cat.add_resource("a");
  const ResourceId b = cat.add_resource("b");
  NodeType n;
  n.proc = p;
  n.resources = {{a, 2}};
  EXPECT_EQ(n.units_of(p), 1);
  EXPECT_EQ(n.units_of(a), 2);
  EXPECT_EQ(n.units_of(b), 0);
  EXPECT_TRUE(n.provides_all({a}));
  EXPECT_FALSE(n.provides_all({a, b}));
  EXPECT_TRUE(n.provides_all({}));
  EXPECT_TRUE(n.can_host(p, {a}));
  EXPECT_FALSE(n.can_host(p, {b}));
}

TEST(DedicatedPlatform, HostsForAndSomeNodeHosts) {
  ResourceCatalog cat;
  const ResourceId p1 = cat.add_processor_type("P1");
  const ResourceId p2 = cat.add_processor_type("P2");
  const ResourceId r = cat.add_resource("r");

  DedicatedPlatform plat;
  plat.add_node_type(NodeType{"bare", p1, {}, 3});
  plat.add_node_type(NodeType{"rich", p1, {{r, 1}}, 7});
  plat.add_node_type(NodeType{"other", p2, {}, 4});

  Task t;
  t.proc = p1;
  t.resources = {r};
  EXPECT_EQ(plat.hosts_for(t), std::vector<std::size_t>{1});
  t.resources.clear();
  EXPECT_EQ(plat.hosts_for(t), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(plat.some_node_hosts(p2, {}));
  EXPECT_FALSE(plat.some_node_hosts(p2, {r}));
}

TEST(DedicatedPlatform, RejectsBadNodeTypes) {
  ResourceCatalog cat;
  const ResourceId p = cat.add_processor_type("P");
  const ResourceId r = cat.add_resource("r");
  DedicatedPlatform plat;
  EXPECT_THROW(plat.add_node_type(NodeType{"no-proc", kInvalidResource, {}, 1}),
               std::logic_error);
  EXPECT_THROW(plat.add_node_type(NodeType{"zero-units", p, {{r, 0}}, 1}), std::logic_error);
  EXPECT_THROW(plat.add_node_type(NodeType{"proc-as-res", p, {{p, 1}}, 1}), std::logic_error);
}

class ApplicationTest : public ::testing::Test {
 protected:
  ApplicationTest() : app_(cat_) {
    p1_ = cat_.add_processor_type("P1");
    p2_ = cat_.add_processor_type("P2");
    r_ = cat_.add_resource("r");
  }

  TaskId add(const std::string& name, ResourceId proc, std::vector<ResourceId> res = {},
             Time comp = 2) {
    Task t;
    t.name = name;
    t.comp = comp;
    t.deadline = 100;
    t.proc = proc;
    t.resources = std::move(res);
    return app_.add_task(std::move(t));
  }

  ResourceCatalog cat_;
  Application app_;
  ResourceId p1_, p2_, r_;
};

TEST_F(ApplicationTest, ResourceSetIsUnionWithProcTypes) {
  add("a", p1_, {r_});
  add("b", p2_);
  const auto res = app_.resource_set();
  EXPECT_EQ(res, (std::vector<ResourceId>{p1_, p2_, r_}));
}

TEST_F(ApplicationTest, TasksUsingCountsProcessorAndResource) {
  const TaskId a = add("a", p1_, {r_});
  const TaskId b = add("b", p1_);
  const TaskId c = add("c", p2_, {r_});
  EXPECT_EQ(app_.tasks_using(p1_), (std::vector<TaskId>{a, b}));
  EXPECT_EQ(app_.tasks_using(r_), (std::vector<TaskId>{a, c}));
  EXPECT_EQ(app_.total_demand(p1_), 4);
  EXPECT_EQ(app_.total_demand(r_), 4);
}

TEST_F(ApplicationTest, ResourcesAreCanonicalized) {
  Task t;
  t.name = "x";
  t.comp = 1;
  t.deadline = 10;
  t.proc = p1_;
  t.resources = {r_, r_};
  const TaskId id = app_.add_task(std::move(t));
  EXPECT_EQ(app_.task(id).resources, std::vector<ResourceId>{r_});
}

TEST_F(ApplicationTest, EdgesAndMessages) {
  const TaskId a = add("a", p1_);
  const TaskId b = add("b", p1_);
  app_.add_edge(a, b, 5);
  EXPECT_EQ(app_.message(a, b), 5);
  EXPECT_EQ(app_.successors(a), std::vector<std::uint32_t>{b});
  EXPECT_EQ(app_.predecessors(b), std::vector<std::uint32_t>{a});
  EXPECT_THROW(app_.add_edge(a, b, -1), ModelError);  // duplicate is also rejected
}

TEST_F(ApplicationTest, RejectsNegativeMessage) {
  const TaskId a = add("a", p1_);
  const TaskId b = add("b", p1_);
  EXPECT_THROW(app_.add_edge(b, a, -3), ModelError);
}

TEST_F(ApplicationTest, FindTask) {
  const TaskId a = add("alpha", p1_);
  EXPECT_EQ(app_.find_task("alpha"), a);
  EXPECT_EQ(app_.find_task("beta"), kInvalidTask);
}

TEST_F(ApplicationTest, ValidateCatchesViolations) {
  add("ok", p1_, {r_});
  app_.validate();

  // Non-positive computation time.
  Task bad;
  bad.name = "bad";
  bad.comp = 0;
  bad.deadline = 10;
  bad.proc = p1_;
  Application app2(cat_);
  app2.add_task(bad);
  EXPECT_THROW(app2.validate(), ModelError);

  // Deadline window shorter than computation.
  Task tight;
  tight.name = "tight";
  tight.comp = 5;
  tight.release = 8;
  tight.deadline = 10;
  tight.proc = p1_;
  Application app3(cat_);
  app3.add_task(tight);
  EXPECT_THROW(app3.validate(), ModelError);

  // phi_i must be a processor type.
  Task wrong;
  wrong.name = "wrong";
  wrong.comp = 1;
  wrong.deadline = 10;
  wrong.proc = r_;
  Application app4(cat_);
  app4.add_task(wrong);
  EXPECT_THROW(app4.validate(), ModelError);

  // R_i must not contain processor types.
  Task mixed;
  mixed.name = "mixed";
  mixed.comp = 1;
  mixed.deadline = 10;
  mixed.proc = p1_;
  mixed.resources = {p2_};
  Application app5(cat_);
  app5.add_task(mixed);
  EXPECT_THROW(app5.validate(), ModelError);
}

TEST_F(ApplicationTest, TaskUsesOwnProcType) {
  const TaskId a = add("a", p1_, {r_});
  EXPECT_TRUE(app_.task(a).uses(p1_));
  EXPECT_TRUE(app_.task(a).uses(r_));
  EXPECT_FALSE(app_.task(a).uses(p2_));
}

// Property: after random DAG construction and random message deltas, every
// view of the edge messages agrees with a reference map kept here.
TEST_F(ApplicationTest, AlignedMessagesAgreeWithReferenceMap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Dag shape = seed % 2 == 0 ? random_dag(rng, 30, 0.2) : layered_dag(rng, 30, 5, 0.4);
    Application app(cat_);
    for (std::size_t v = 0; v < shape.num_vertices(); ++v) {
      Task t;
      t.name = "t" + std::to_string(v);
      t.comp = 1;
      t.deadline = 1000;
      t.proc = p1_;
      app.add_task(std::move(t));
    }
    std::map<std::pair<TaskId, TaskId>, Time> reference;
    std::vector<std::pair<TaskId, TaskId>> edges;
    for (TaskId u = 0; u < shape.num_vertices(); ++u) {
      for (TaskId v : shape.successors(u)) edges.emplace_back(u, v);
    }
    rng.shuffle(edges);  // adjacency order != (from, to) order
    for (const auto& [u, v] : edges) {
      const Time m = rng.uniform(0, 9);
      app.add_edge(u, v, m);
      reference[{u, v}] = m;
    }
    for (int step = 0; step < 200 && !edges.empty(); ++step) {
      const auto [u, v] = edges[rng.index(edges.size())];
      const Time m = rng.uniform(0, 50);
      app.set_message(u, v, m);
      reference[{u, v}] = m;
    }
    EXPECT_THROW(app.set_message(0, 0, 1), ModelError);

    std::size_t seen = 0;
    for (TaskId i = 0; i < app.num_tasks(); ++i) {
      const auto succ_msg = app.successor_messages(i);
      ASSERT_EQ(succ_msg.size(), app.successors(i).size());
      for (std::size_t k = 0; k < succ_msg.size(); ++k) {
        const TaskId j = app.successors(i)[k];
        EXPECT_EQ(succ_msg[k], reference.at({i, j}));
        EXPECT_EQ(app.message(i, j), reference.at({i, j}));
        ++seen;
      }
      const auto pred_msg = app.predecessor_messages(i);
      ASSERT_EQ(pred_msg.size(), app.predecessors(i).size());
      for (std::size_t k = 0; k < pred_msg.size(); ++k) {
        EXPECT_EQ(pred_msg[k], reference.at({app.predecessors(i)[k], i}));
      }
    }
    EXPECT_EQ(seen, reference.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rtlb
