#include "src/model/platform.hpp"

#include <algorithm>

namespace rtlb {

ResourceId ResourceCatalog::add(Entry e) {
  if (find(e.name) != kInvalidResource) {
    throw ModelError("duplicate resource name '" + e.name + "'");
  }
  entries_.push_back(std::move(e));
  return static_cast<ResourceId>(entries_.size() - 1);
}

ResourceId ResourceCatalog::add_processor_type(std::string name, Cost cost) {
  return add(Entry{std::move(name), cost, /*is_processor=*/true});
}

ResourceId ResourceCatalog::add_resource(std::string name, Cost cost) {
  return add(Entry{std::move(name), cost, /*is_processor=*/false});
}

ResourceId ResourceCatalog::find(std::string_view name) const {
  for (ResourceId r = 0; r < entries_.size(); ++r) {
    if (entries_[r].name == name) return r;
  }
  return kInvalidResource;
}

const ResourceCatalog::Entry& ResourceCatalog::entry(ResourceId r) const {
  RTLB_CHECK(r < entries_.size(), "resource id out of range");
  return entries_[r];
}

void ResourceCatalog::set_cost(ResourceId r, Cost cost) {
  RTLB_CHECK(r < entries_.size(), "resource id out of range");
  entries_[r].cost = cost;
}

int NodeType::units_of(ResourceId r) const {
  if (r == proc) return 1;
  for (const auto& [res, units] : resources) {
    if (res == r) return units;
  }
  return 0;
}

bool NodeType::provides_all(const std::vector<ResourceId>& required) const {
  return std::all_of(required.begin(), required.end(),
                     [this](ResourceId r) { return units_of(r) > 0; });
}

std::size_t DedicatedPlatform::add_node_type(NodeType node) {
  RTLB_CHECK(node.proc != kInvalidResource, "node type needs a processor");
  for (const auto& [res, units] : node.resources) {
    RTLB_CHECK(units >= 1, "node resource units must be >= 1");
    RTLB_CHECK(res != node.proc, "processor listed among node resources");
  }
  std::sort(node.resources.begin(), node.resources.end());
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

std::vector<std::size_t> DedicatedPlatform::hosts_for(const Task& t) const {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].can_host(t.proc, t.resources)) out.push_back(n);
  }
  return out;
}

std::vector<std::uint64_t> DedicatedPlatform::host_mask(
    ResourceId proc, const std::vector<ResourceId>& resources) const {
  std::vector<std::uint64_t> mask(mask_words(), 0);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].can_host(proc, resources)) mask[n / 64] |= std::uint64_t{1} << (n % 64);
  }
  return mask;
}

}  // namespace rtlb
