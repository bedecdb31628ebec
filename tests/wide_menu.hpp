// A dedicated node-type menu wider than one 64-bit host-mask word, shared
// by the mergeability, windows and certificate suites.
//
// Node types 0..68 carry processor P plus one of the resources a / b; node
// type 69 (bit 5 of mask word 1) is the only one carrying both. Task i has
// predecessors x {a} and y {b} and successors u {a} and v {b}, all on P,
// with messages heavy enough that Figures 2 and 3 merge each side whole:
// E_i = 4 with M_i = {x, y} and L_i = 96 with G_i = {u, v}. Both merges need
// node type 69. `narrow` is the same menu without it, where E_i = 12 and
// L_i = 88.
#pragma once

#include <string>

#include "src/model/application.hpp"
#include "src/model/platform.hpp"

namespace rtlb {

struct WideMenu {
  ResourceCatalog catalog;
  Application app{catalog};
  DedicatedPlatform wide;
  DedicatedPlatform narrow;
  ResourceId proc = catalog.add_processor_type("P", 1);
  ResourceId a = catalog.add_resource("a", 1);
  ResourceId b = catalog.add_resource("b", 1);
  TaskId x = add("x", 2, {a});
  TaskId y = add("y", 2, {b});
  TaskId i = add("i", 1, {});
  TaskId u = add("u", 2, {a});
  TaskId v = add("v", 2, {b});

  WideMenu() {
    for (int n = 0; n < 69; ++n) {
      const NodeType node{"n" + std::to_string(n), proc, {{n % 2 == 0 ? a : b, 1}}, 1};
      wide.add_node_type(node);
      narrow.add_node_type(node);
    }
    wide.add_node_type(NodeType{"ab", proc, {{a, 1}, {b, 1}}, 3});
    app.add_edge(x, i, 10);
    app.add_edge(y, i, 10);
    app.add_edge(i, u, 10);
    app.add_edge(i, v, 10);
  }

 private:
  TaskId add(const char* name, Time comp, std::vector<ResourceId> resources) {
    Task t;
    t.name = name;
    t.comp = comp;
    t.deadline = 100;
    t.proc = proc;
    t.resources = std::move(resources);
    return app.add_task(std::move(t));
  }
};

}  // namespace rtlb
