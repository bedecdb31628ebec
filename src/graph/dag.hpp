// Directed acyclic graph container and classic algorithms.
//
// The application model (src/model) stores its precedence structure in a Dag;
// generators (src/graph/generators) produce random Dags for synthetic
// workloads. Vertices are dense 0-based ids.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace rtlb {

/// Strict reachability as packed bit rows: bit v of row u is set iff a
/// path u ->+ v exists. A row is `words` = ceil(n/64) words.
struct ReachRows {
  std::size_t words = 0;
  std::vector<std::uint64_t> bits;

  bool test(std::uint32_t u, std::uint32_t v) const {
    return (bits[u * words + v / 64] >> (v % 64)) & 1U;
  }
  bool operator==(const ReachRows&) const = default;
};

class Dag {
 public:
  Dag() = default;
  explicit Dag(std::size_t num_vertices);

  std::size_t num_vertices() const { return succ_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Add vertices so that the graph has at least `n` of them.
  void grow_to(std::size_t n);

  /// Capacity for `n` vertices, and for `out`/`in` edges at vertex v.
  void reserve(std::size_t n);
  void reserve_edges(std::uint32_t v, std::size_t out, std::size_t in);

  /// Add edge u -> v. Duplicate edges and self-loops are rejected.
  void add_edge(std::uint32_t u, std::uint32_t v);

  bool has_edge(std::uint32_t u, std::uint32_t v) const;

  const std::vector<std::uint32_t>& successors(std::uint32_t v) const { return succ_[v]; }
  const std::vector<std::uint32_t>& predecessors(std::uint32_t v) const { return pred_[v]; }

  std::size_t in_degree(std::uint32_t v) const { return pred_[v].size(); }
  std::size_t out_degree(std::uint32_t v) const { return succ_[v].size(); }

  std::vector<std::uint32_t> sources() const;
  std::vector<std::uint32_t> sinks() const;

  /// Kahn topological order, smallest ready id first, or nullopt if the
  /// edge set has a cycle.
  std::optional<std::vector<std::uint32_t>> topological_order() const;

  bool is_acyclic() const { return topological_order().has_value(); }

  /// Strict reachability, filled in reverse topological order. Requires
  /// acyclic.
  ReachRows reachability() const;

  /// The same over `order`, a topological order of this graph computed
  /// once by the caller; the overload above computes it and delegates.
  ReachRows reachability(std::span<const std::uint32_t> order) const;

  /// True when edge u -> v is implied by another path (some other successor
  /// of u reaches v): the transitive reduction is exactly the edges for
  /// which this is false.
  bool redundant_edge(std::uint32_t u, std::uint32_t v, const ReachRows& reach) const;

  /// Longest weighted path ending at each vertex (vertex weights), i.e. the
  /// classic critical-path level. Requires acyclic; throws otherwise.
  std::vector<Time> longest_path_to(const std::vector<Time>& vertex_weight) const;

  /// Longest weighted path starting at each vertex (inclusive of the vertex).
  std::vector<Time> longest_path_from(const std::vector<Time>& vertex_weight) const;

  /// Length of the overall critical path under the given vertex weights.
  Time critical_path(const std::vector<Time>& vertex_weight) const;

  /// Depth level of each vertex (sources are level 0).
  std::vector<std::uint32_t> levels() const;

  /// Graphviz dot output, one label per vertex.
  std::string to_dot(const std::vector<std::string>& labels) const;


 private:
  std::vector<std::vector<std::uint32_t>> succ_;
  std::vector<std::vector<std::uint32_t>> pred_;
  std::size_t num_edges_ = 0;
};

}  // namespace rtlb
