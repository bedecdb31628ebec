// Declarative fleet scenario specs.
//
// A scenario describes a GRID of workload families -- the Cartesian product
// of graph shape x task count x laxity x system model -- plus a fixed set of
// generator defaults and an instance count per grid cell. The fleet runner
// (src/fleet/runner.hpp) streams every instance of every cell through the
// differential oracles; this module owns the spec format, the deterministic
// grid enumeration, and the per-instance seed derivation.
//
// Seeds: instance k of cell c has seed split_seed(spec.seed, c, k)
// (src/common/random.hpp), so an instance's bytes are a pure function of
// (spec, cell index, instance index) -- independent of sharding, worker
// scheduling, and checkpoint resumes. That is what makes a divergence
// record's (cell, instance) pair a complete reproducer.
//
// JSON format (parse with ScenarioSpec::from_json; axes and defaults may be
// omitted, single-element axes collapse the dimension):
//
//   {
//     "name": "smoke",
//     "seed": 7,
//     "instances_per_cell": 5,
//     "axes": {
//       "shape": ["layered", "random", "fork_join", "series_parallel",
//                 "pipeline", "out_tree"],
//       "num_tasks": [10, 20, 40],
//       "laxity": [1.2, 2.0, 4.0],
//       "model": ["shared", "dedicated"]
//     },
//     "defaults": { "edge_prob": 0.3, "num_layers": 4, "comp_min": 1,
//                   "comp_max": 10, "msg_min": 0, "msg_max": 5, "ccr": 0,
//                   "num_proc_types": 2, "num_resources": 2,
//                   "resource_prob": 0.4, "release_spread": 0,
//                   "preemptive_prob": 0.2 }
//   }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/core/analysis.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {

/// The `workload` axis: how a cell's instances are generated. Flat cells
/// call generate_workload(); Periodic/Sporadic cells call
/// generate_recurrent_instance() and the oracles run over the LOWERED
/// application -- the same differential contract, now exercised end-to-end
/// through the workload front door.
enum class WorkloadForm {
  Flat,
  Periodic,
  Sporadic,
};

/// One grid point. `index` is the cell's position in the deterministic
/// enumeration order (shape-major, then num_tasks, laxity, workload, model)
/// -- it is part of every instance's seed, so the axis order is a frozen
/// contract.
struct ScenarioCell {
  std::size_t index = 0;
  GraphShape shape = GraphShape::Layered;
  std::size_t num_tasks = 20;
  double laxity = 2.0;
  WorkloadForm workload = WorkloadForm::Flat;
  SystemModel model = SystemModel::Shared;

  /// Stable human-readable key, e.g. "layered/n20/lax2/shared"; the workload
  /// segment is rendered only for recurrent cells
  /// ("layered/n20/lax2/periodic/shared"), so flat-only scenarios keep their
  /// historical labels.
  std::string label() const;
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::uint64_t seed = 1;
  std::size_t instances_per_cell = 1;

  // Axes, each in spec order (deduplication is the author's job).
  std::vector<GraphShape> shapes{GraphShape::Layered};
  std::vector<std::size_t> task_counts{20};
  std::vector<double> laxities{2.0};
  std::vector<WorkloadForm> workloads{WorkloadForm::Flat};
  std::vector<SystemModel> models{SystemModel::Shared};

  /// Generator knobs shared by every cell; the cell's own axes overwrite
  /// seed/shape/num_tasks/laxity on top of this.
  WorkloadParams defaults;

  /// Throws ModelError on unknown keys/axis values or structural nonsense
  /// (empty axes, zero instances) -- specs are user input.
  static ScenarioSpec from_json(const Json& doc);
  static ScenarioSpec from_text(const std::string& text);

  /// Canonical JSON (stable key order, every field explicit); equal specs
  /// dump byte-identically, which is what fingerprint() hashes.
  Json to_json() const;

  /// Content hash of the canonical dump; checkpoints and shard aggregates
  /// embed it so a resume or merge against a different spec is refused.
  std::uint64_t fingerprint() const;
  /// The same hash of `canonical`, a to_json() tree the caller already
  /// built (a fleet report hashes the tree it also writes out).
  static std::uint64_t fingerprint(const Json& canonical);

  std::vector<ScenarioCell> cells() const;
  std::size_t num_cells() const {
    return shapes.size() * task_counts.size() * laxities.size() * workloads.size() *
           models.size();
  }
  std::size_t total_instances() const { return num_cells() * instances_per_cell; }

  std::uint64_t instance_seed(std::size_t cell_index, std::size_t k) const;

  /// Full generator parameters for instance k of `cell` (defaults + the
  /// cell's axis values + the derived seed).
  WorkloadParams instance_params(const ScenarioCell& cell, std::size_t k) const;

  /// Instance k of `cell`, exactly as the fleet analyzes it: generate_workload
  /// for flat cells, generate_recurrent_instance (lowered) for periodic and
  /// sporadic ones. Reproducers are rebuilt through this too.
  ProblemInstance build_instance(const ScenarioCell& cell, std::size_t k) const;
};

/// Axis-value names used by the JSON format ("layered", ..., "shared").
std::string shape_name(GraphShape shape);
std::string model_name(SystemModel model);
std::string workload_form_name(WorkloadForm form);
GraphShape shape_from_name(const std::string& name);    // ModelError on unknown
SystemModel model_from_name(const std::string& name);   // ModelError on unknown
WorkloadForm workload_form_from_name(const std::string& name);  // ModelError on unknown

}  // namespace rtlb
