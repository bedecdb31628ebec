// Distributed-system models (Sec 2.2): the resource catalog shared by both
// architectures, and the dedicated model's node-type menu.
//
// Shared model: all resources reachable from all processors; its only extra
// datum is the per-unit cost CostR(r), which lives in the catalog.
// Dedicated model: the system is assembled from node types n in Lambda, each
// bundling one processor of a fixed type with a resource multiset lambda_n
// and carrying a cost CostN(n).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/model/task.hpp"

namespace rtlb {

/// Cost unit for CostR / CostN.
using Cost = std::int64_t;

/// Interns resource and processor-type names; owns per-unit costs.
/// The paper's RES ranges over ids of this catalog.
class ResourceCatalog {
 public:
  ResourceId add_processor_type(std::string name, Cost cost = 0);
  ResourceId add_resource(std::string name, Cost cost = 0);

  /// Lookup by name; kInvalidResource if absent.
  ResourceId find(std::string_view name) const;

  std::size_t size() const { return entries_.size(); }
  bool is_processor(ResourceId r) const { return entry(r).is_processor; }
  const std::string& name(ResourceId r) const { return entry(r).name; }
  Cost cost(ResourceId r) const { return entry(r).cost; }
  void set_cost(ResourceId r, Cost cost);

 private:
  struct Entry {
    std::string name;
    Cost cost = 0;
    bool is_processor = false;
  };
  const Entry& entry(ResourceId r) const;
  ResourceId add(Entry e);

  std::vector<Entry> entries_;
};

/// One node type of the dedicated model: a processor of type `proc` plus a
/// multiset of dedicated resources (gamma_nr units of each r).
struct NodeType {
  std::string name;
  ResourceId proc = kInvalidResource;
  /// (resource, units) pairs, sorted by resource id, units >= 1.
  std::vector<std::pair<ResourceId, int>> resources;
  Cost cost = 0;

  /// gamma_nr: units of r provided by one node of this type. A node provides
  /// exactly one unit of its processor type.
  int units_of(ResourceId r) const;

  /// lambda_n superset test: does the node carry at least one unit of every
  /// resource in `required`?
  bool provides_all(const std::vector<ResourceId>& required) const;

  /// Can a task with processor type `proc_type` and resource set `required`
  /// execute on this node type (the eta_i membership test)?
  bool can_host(ResourceId proc_type, const std::vector<ResourceId>& required) const {
    return proc == proc_type && provides_all(required);
  }
};

/// The dedicated model's Lambda: the menu of node types a system may be
/// assembled from.
class DedicatedPlatform {
 public:
  std::size_t add_node_type(NodeType node);

  std::size_t num_node_types() const { return nodes_.size(); }
  const NodeType& node_type(std::size_t n) const { return nodes_[n]; }
  const std::vector<NodeType>& node_types() const { return nodes_; }

  /// Indices of node types that can host the task (eta_i). Empty means the
  /// application is trivially infeasible on this platform.
  std::vector<std::size_t> hosts_for(const Task& t) const;

  /// 64-bit words in a host mask: one bit per node type.
  std::size_t mask_words() const { return (nodes_.size() + 63) / 64; }

  /// eta_i as a bitset: bit n % 64 of word n / 64 is set iff node type n can
  /// host a task with processor type `proc` and resource set `resources`.
  /// A set of tasks is mergeable (Definition 2(ii)) iff the AND of its
  /// members' masks is non-zero: a node has one processor type, and it
  /// carries a union iff it carries every member.
  std::vector<std::uint64_t> host_mask(ResourceId proc,
                                       const std::vector<ResourceId>& resources) const;

 private:
  std::vector<NodeType> nodes_;
};

}  // namespace rtlb
