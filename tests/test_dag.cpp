#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/common/random.hpp"
#include "src/graph/dag.hpp"
#include "src/graph/generators.hpp"

namespace rtlb {
namespace {

Dag diamond() {
  Dag g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Dag, BasicDegreesAndEdges) {
  Dag g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.sources(), std::vector<std::uint32_t>{0});
  EXPECT_EQ(g.sinks(), std::vector<std::uint32_t>{3});
}

TEST(Dag, RejectsSelfLoopAndDuplicate) {
  Dag g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 0), ModelError);
  EXPECT_THROW(g.add_edge(0, 1), ModelError);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag g = diamond();
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(4);
  for (std::size_t k = 0; k < order->size(); ++k) pos[(*order)[k]] = k;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Dag, DetectsCycle) {
  Dag g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(g.topological_order().has_value());
  EXPECT_FALSE(g.is_acyclic());
}

TEST(Dag, EmptyGraphIsAcyclic) {
  Dag g(0);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_TRUE(g.sources().empty());
}

TEST(Dag, Reachability) {
  Dag g = diamond();
  auto reach = g.reachability();
  EXPECT_TRUE(reach.test(0, 3));
  EXPECT_TRUE(reach.test(0, 1));
  EXPECT_FALSE(reach.test(1, 2));
  EXPECT_FALSE(reach.test(3, 0));
  EXPECT_FALSE(reach.test(0, 0));  // strict reachability
}

TEST(Dag, LongestPathsAndCriticalPath) {
  Dag g = diamond();
  const std::vector<Time> w{1, 2, 5, 3};
  const auto into = g.longest_path_to(w);
  EXPECT_EQ(into[0], 1);
  EXPECT_EQ(into[1], 3);
  EXPECT_EQ(into[2], 6);
  EXPECT_EQ(into[3], 9);  // 0 -> 2 -> 3
  const auto from = g.longest_path_from(w);
  EXPECT_EQ(from[3], 3);
  EXPECT_EQ(from[1], 5);
  EXPECT_EQ(from[2], 8);
  EXPECT_EQ(from[0], 9);
  EXPECT_EQ(g.critical_path(w), 9);
}

TEST(Dag, Levels) {
  Dag g = diamond();
  const auto levels = g.levels();
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], 1u);
  EXPECT_EQ(levels[3], 2u);
}

TEST(Dag, GrowTo) {
  Dag g(2);
  g.grow_to(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  g.add_edge(0, 4);
  EXPECT_TRUE(g.has_edge(0, 4));
  g.grow_to(3);  // shrinking is a no-op
  EXPECT_EQ(g.num_vertices(), 5u);
}

/// The transitive reduction as an edge list: every edge the bitset rows do
/// not mark redundant.
std::vector<std::pair<std::uint32_t, std::uint32_t>> reduction_edges(const Dag& g) {
  const ReachRows reach = g.reachability();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (std::uint32_t v : g.successors(u)) {
      if (!g.redundant_edge(u, v, reach)) out.emplace_back(u, v);
    }
  }
  return out;
}

Dag dag_of(std::size_t n, const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  Dag g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

TEST(Dag, TransitiveReductionDropsShortcuts) {
  Dag g = diamond();
  g.add_edge(0, 3);  // shortcut implied by 0->1->3
  const Dag reduced = dag_of(4, reduction_edges(g));
  EXPECT_EQ(reduced.num_edges(), 4u);
  EXPECT_FALSE(reduced.has_edge(0, 3));
  EXPECT_TRUE(reduced.has_edge(0, 1));
  EXPECT_TRUE(reduced.has_edge(2, 3));
}

TEST(Dag, TransitiveReductionPreservesReachability) {
  Dag g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(0, 3);  // redundant
  g.add_edge(3, 4);
  g.add_edge(1, 4);  // redundant
  g.add_edge(4, 5);
  g.add_edge(0, 5);  // redundant
  const Dag reduced = dag_of(6, reduction_edges(g));
  EXPECT_EQ(reduced.reachability(), g.reachability());
  EXPECT_EQ(reduced.num_edges(), 6u);  // exactly the three shortcuts dropped
  // Reducing a reduction is a fixed point.
  EXPECT_EQ(reduction_edges(reduced).size(), reduced.num_edges());
}

// -- Oracles: the earlier implementations, kept here to pin the current ones.

/// Kahn's algorithm re-sorting the whole frontier before every pop.
std::optional<std::vector<std::uint32_t>> resorting_topological_order(const Dag& g) {
  std::vector<std::uint32_t> indeg(g.num_vertices());
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.in_degree(v));
  }
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> frontier = g.sources();
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end(), std::greater<>{});
    const std::uint32_t v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (std::uint32_t w : g.successors(v)) {
      if (--indeg[w] == 0) frontier.push_back(w);
    }
  }
  if (order.size() != g.num_vertices()) return std::nullopt;
  return order;
}

/// vector<vector<bool>> reachability and the reduction built on it.
std::vector<std::vector<bool>> bool_reachability(const Dag& g) {
  const std::size_t n = g.num_vertices();
  const auto topo = resorting_topological_order(g);
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
    for (std::uint32_t w : g.successors(*it)) {
      reach[*it][w] = true;
      for (std::uint32_t x = 0; x < n; ++x) {
        if (reach[w][x]) reach[*it][x] = true;
      }
    }
  }
  return reach;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> bool_reduction_edges(const Dag& g) {
  const auto reach = bool_reachability(g);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (std::uint32_t v : g.successors(u)) {
      bool redundant = false;
      for (std::uint32_t w : g.successors(u)) redundant |= w != v && reach[w][v];
      if (!redundant) out.emplace_back(u, v);
    }
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_of(const Dag& g) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (std::uint32_t v : g.successors(u)) out.emplace_back(u, v);
  }
  return out;
}

/// Generator DAGs with their vertex ids shuffled and their edges inserted in
/// shuffled order, so neither the id order nor the adjacency order is
/// already topological.
std::vector<Dag> random_dags(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Dag> shapes;
  shapes.push_back(layered_dag(rng, 40, 6, 0.3));
  shapes.push_back(random_dag(rng, 50, 0.15));
  shapes.push_back(series_parallel(rng, 45));
  shapes.push_back(fork_join(4, 5));
  std::vector<Dag> out;
  for (const Dag& g : shapes) {
    std::vector<std::uint32_t> perm(g.num_vertices());
    for (std::uint32_t v = 0; v < perm.size(); ++v) perm[v] = v;
    rng.shuffle(perm);
    auto edges = edges_of(g);
    rng.shuffle(edges);
    Dag relabeled(g.num_vertices());
    for (const auto& [u, v] : edges) relabeled.add_edge(perm[u], perm[v]);
    out.push_back(std::move(relabeled));
  }
  return out;
}

TEST(Dag, TopologicalOrderMatchesResortingFrontier) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const Dag& g : random_dags(seed)) {
      EXPECT_EQ(g.topological_order(), resorting_topological_order(g)) << "seed " << seed;
    }
  }
  Dag cyclic(3);
  cyclic.add_edge(2, 1);
  cyclic.add_edge(1, 0);
  cyclic.add_edge(0, 2);
  EXPECT_EQ(cyclic.topological_order(), std::nullopt);
}

TEST(Dag, BitsetReductionMatchesBoolMatrixOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const Dag& g : random_dags(seed)) {
      const auto oracle = bool_reachability(g);
      const ReachRows reach = g.reachability();
      for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
        for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(reach.test(u, v), oracle[u][v]) << "seed " << seed;
        }
      }
      const auto reduced = reduction_edges(g);
      EXPECT_EQ(reduced, bool_reduction_edges(g)) << "seed " << seed;
      EXPECT_EQ(dag_of(g.num_vertices(), reduced).reachability(), reach) << "seed " << seed;
    }
  }
}

TEST(Dag, DotExportContainsAllEdges) {
  Dag g = diamond();
  const std::string dot = g.to_dot({"a", "b", "c", "d"});
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
}

}  // namespace
}  // namespace rtlb
