#include "src/graph/dag.hpp"

#include <algorithm>
#include <functional>
#include <queue>

namespace rtlb {

Dag::Dag(std::size_t num_vertices) : succ_(num_vertices), pred_(num_vertices) {}

void Dag::grow_to(std::size_t n) {
  if (n > succ_.size()) {
    succ_.resize(n);
    pred_.resize(n);
  }
}

void Dag::reserve(std::size_t n) {
  succ_.reserve(n);
  pred_.reserve(n);
}

void Dag::reserve_edges(std::uint32_t v, std::size_t out, std::size_t in) {
  succ_[v].reserve(out);
  pred_[v].reserve(in);
}

void Dag::add_edge(std::uint32_t u, std::uint32_t v) {
  RTLB_CHECK(u < succ_.size() && v < succ_.size(), "edge endpoint out of range");
  if (u == v) throw ModelError("self-loop on vertex " + std::to_string(u));
  if (has_edge(u, v)) throw ModelError("duplicate edge " + std::to_string(u) + "->" + std::to_string(v));
  succ_[u].push_back(v);
  pred_[v].push_back(u);
  ++num_edges_;
}

bool Dag::has_edge(std::uint32_t u, std::uint32_t v) const {
  RTLB_CHECK(u < succ_.size() && v < succ_.size(), "edge endpoint out of range");
  return std::find(succ_[u].begin(), succ_[u].end(), v) != succ_[u].end();
}

std::vector<std::uint32_t> Dag::sources() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; v < succ_.size(); ++v) {
    if (pred_[v].empty()) out.push_back(v);
  }
  return out;
}

std::vector<std::uint32_t> Dag::sinks() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; v < succ_.size(); ++v) {
    if (succ_[v].empty()) out.push_back(v);
  }
  return out;
}

std::optional<std::vector<std::uint32_t>> Dag::topological_order() const {
  std::vector<std::uint32_t> indeg(succ_.size());
  for (std::uint32_t v = 0; v < succ_.size(); ++v) {
    indeg[v] = static_cast<std::uint32_t>(pred_[v].size());
  }
  std::vector<std::uint32_t> order;
  order.reserve(succ_.size());
  // Min-heap frontier: the smallest ready id goes next, for determinism.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> frontier(
      std::greater<>{}, sources());
  while (!frontier.empty()) {
    const std::uint32_t v = frontier.top();
    frontier.pop();
    order.push_back(v);
    for (std::uint32_t w : succ_[v]) {
      if (--indeg[w] == 0) frontier.push(w);
    }
  }
  if (order.size() != succ_.size()) return std::nullopt;
  return order;
}

ReachRows Dag::reachability() const {
  const auto topo = topological_order();
  RTLB_CHECK(topo.has_value(), "reachability on cyclic graph");
  return reachability(*topo);
}

ReachRows Dag::reachability(std::span<const std::uint32_t> order) const {
  RTLB_CHECK(order.size() == succ_.size(), "reachability: order is not a permutation");
  ReachRows reach{(succ_.size() + 63) / 64, {}};
  reach.bits.assign(succ_.size() * reach.words, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::uint64_t* row = &reach.bits[*it * reach.words];
    for (std::uint32_t w : succ_[*it]) {  // row |= {w} u row(w)
      row[w / 64] |= 1ULL << (w % 64);
      for (std::size_t k = 0; k < reach.words; ++k) row[k] |= reach.bits[w * reach.words + k];
    }
  }
  return reach;
}

bool Dag::redundant_edge(std::uint32_t u, std::uint32_t v, const ReachRows& reach) const {
  // w == v never counts: reachability is strict and the graph acyclic.
  return std::any_of(succ_[u].begin(), succ_[u].end(), [&](auto w) { return reach.test(w, v); });
}

std::vector<Time> Dag::longest_path_to(const std::vector<Time>& vertex_weight) const {
  RTLB_CHECK(vertex_weight.size() == succ_.size(), "weight arity mismatch");
  auto topo = topological_order();
  if (!topo) throw ModelError("longest_path_to: graph has a cycle");
  std::vector<Time> dist(succ_.size(), 0);
  for (std::uint32_t v : *topo) {
    Time best = 0;
    for (std::uint32_t p : pred_[v]) best = std::max(best, dist[p]);
    dist[v] = best + vertex_weight[v];
  }
  return dist;
}

std::vector<Time> Dag::longest_path_from(const std::vector<Time>& vertex_weight) const {
  RTLB_CHECK(vertex_weight.size() == succ_.size(), "weight arity mismatch");
  auto topo = topological_order();
  if (!topo) throw ModelError("longest_path_from: graph has a cycle");
  std::vector<Time> dist(succ_.size(), 0);
  for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
    std::uint32_t v = *it;
    Time best = 0;
    for (std::uint32_t s : succ_[v]) best = std::max(best, dist[s]);
    dist[v] = best + vertex_weight[v];
  }
  return dist;
}

Time Dag::critical_path(const std::vector<Time>& vertex_weight) const {
  Time best = 0;
  for (Time d : longest_path_to(vertex_weight)) best = std::max(best, d);
  return best;
}

std::vector<std::uint32_t> Dag::levels() const {
  auto topo = topological_order();
  if (!topo) throw ModelError("levels: graph has a cycle");
  std::vector<std::uint32_t> level(succ_.size(), 0);
  for (std::uint32_t v : *topo) {
    for (std::uint32_t p : pred_[v]) level[v] = std::max(level[v], level[p] + 1);
  }
  return level;
}

std::string Dag::to_dot(const std::vector<std::string>& labels) const {
  RTLB_CHECK(labels.size() == succ_.size(), "label arity mismatch");
  std::string out = "digraph G {\n";
  for (std::uint32_t v = 0; v < succ_.size(); ++v) {
    out += "  n" + std::to_string(v) + " [label=\"" + labels[v] + "\"];\n";
  }
  for (std::uint32_t v = 0; v < succ_.size(); ++v) {
    for (std::uint32_t w : succ_[v]) {
      out += "  n" + std::to_string(v) + " -> n" + std::to_string(w) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace rtlb
