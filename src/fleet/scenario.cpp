#include "src/fleet/scenario.hpp"

#include <cmath>
#include <cstdio>

namespace rtlb {

namespace {

/// Render a laxity value the way the spec author wrote it: integral values
/// without a trailing ".0" noise beyond one digit, else shortest %g.
std::string laxity_str(double laxity) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", laxity);
  return buf;
}

double number_field(const Json& obj, const char* key, double fallback) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) throw ModelError(std::string("scenario: '") + key + "' must be a number");
  return v->as_double();
}

std::int64_t int_field(const Json& obj, const char* key, std::int64_t fallback) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_int()) throw ModelError(std::string("scenario: '") + key + "' must be an integer");
  return v->as_int();
}

}  // namespace

std::string shape_name(GraphShape shape) {
  switch (shape) {
    case GraphShape::Layered: return "layered";
    case GraphShape::Random: return "random";
    case GraphShape::ForkJoin: return "fork_join";
    case GraphShape::SeriesParallel: return "series_parallel";
    case GraphShape::Pipeline: return "pipeline";
    case GraphShape::OutTree: return "out_tree";
  }
  throw ModelError("scenario: unknown graph shape enum value");
}

GraphShape shape_from_name(const std::string& name) {
  if (name == "layered") return GraphShape::Layered;
  if (name == "random") return GraphShape::Random;
  if (name == "fork_join") return GraphShape::ForkJoin;
  if (name == "series_parallel") return GraphShape::SeriesParallel;
  if (name == "pipeline") return GraphShape::Pipeline;
  if (name == "out_tree") return GraphShape::OutTree;
  throw ModelError("scenario: unknown shape '" + name + "'");
}

std::string model_name(SystemModel model) {
  return model == SystemModel::Shared ? "shared" : "dedicated";
}

SystemModel model_from_name(const std::string& name) {
  if (name == "shared") return SystemModel::Shared;
  if (name == "dedicated") return SystemModel::Dedicated;
  throw ModelError("scenario: unknown model '" + name + "'");
}

std::string workload_form_name(WorkloadForm form) {
  switch (form) {
    case WorkloadForm::Flat: return "flat";
    case WorkloadForm::Periodic: return "periodic";
    case WorkloadForm::Sporadic: return "sporadic";
  }
  throw ModelError("scenario: unknown workload form enum value");
}

WorkloadForm workload_form_from_name(const std::string& name) {
  if (name == "flat") return WorkloadForm::Flat;
  if (name == "periodic") return WorkloadForm::Periodic;
  if (name == "sporadic") return WorkloadForm::Sporadic;
  throw ModelError("scenario: unknown workload form '" + name + "'");
}

std::string ScenarioCell::label() const {
  // The workload segment appears only for recurrent cells, keeping the
  // historical labels (and every recorded divergence key) of flat-only
  // scenarios byte-stable.
  const std::string workload_segment =
      workload == WorkloadForm::Flat ? "" : workload_form_name(workload) + "/";
  return shape_name(shape) + "/n" + std::to_string(num_tasks) + "/lax" + laxity_str(laxity) +
         "/" + workload_segment + model_name(model);
}

ScenarioSpec ScenarioSpec::from_text(const std::string& text) {
  return from_json(Json::parse(text));
}

ScenarioSpec ScenarioSpec::from_json(const Json& doc) {
  if (!doc.is_object()) throw ModelError("scenario: document must be a JSON object");
  ScenarioSpec spec;
  if (const Json* v = doc.find("name")) {
    if (!v->is_string()) throw ModelError("scenario: 'name' must be a string");
    spec.name = v->as_string();
  }
  spec.seed = static_cast<std::uint64_t>(int_field(doc, "seed", 1));
  const std::int64_t per_cell = int_field(doc, "instances_per_cell", 1);
  if (per_cell < 1) throw ModelError("scenario: instances_per_cell must be >= 1");
  spec.instances_per_cell = static_cast<std::size_t>(per_cell);

  if (const Json* axes = doc.find("axes")) {
    if (!axes->is_object()) throw ModelError("scenario: 'axes' must be an object");
    if (const Json* a = axes->find("shape")) {
      if (!a->is_array() || a->size() == 0) throw ModelError("scenario: axes.shape must be a non-empty array");
      spec.shapes.clear();
      for (std::size_t i = 0; i < a->size(); ++i) spec.shapes.push_back(shape_from_name(a->at(i).as_string()));
    }
    if (const Json* a = axes->find("num_tasks")) {
      if (!a->is_array() || a->size() == 0) throw ModelError("scenario: axes.num_tasks must be a non-empty array");
      spec.task_counts.clear();
      for (std::size_t i = 0; i < a->size(); ++i) {
        const std::int64_t n = a->at(i).as_int();
        if (n < 1) throw ModelError("scenario: axes.num_tasks values must be >= 1");
        spec.task_counts.push_back(static_cast<std::size_t>(n));
      }
    }
    if (const Json* a = axes->find("laxity")) {
      if (!a->is_array() || a->size() == 0) throw ModelError("scenario: axes.laxity must be a non-empty array");
      spec.laxities.clear();
      for (std::size_t i = 0; i < a->size(); ++i) {
        const double lax = a->at(i).as_double();
        if (!(lax >= 1.0)) throw ModelError("scenario: axes.laxity values must be >= 1");
        spec.laxities.push_back(lax);
      }
    }
    if (const Json* a = axes->find("workload")) {
      if (!a->is_array() || a->size() == 0) throw ModelError("scenario: axes.workload must be a non-empty array");
      spec.workloads.clear();
      for (std::size_t i = 0; i < a->size(); ++i) spec.workloads.push_back(workload_form_from_name(a->at(i).as_string()));
    }
    if (const Json* a = axes->find("model")) {
      if (!a->is_array() || a->size() == 0) throw ModelError("scenario: axes.model must be a non-empty array");
      spec.models.clear();
      for (std::size_t i = 0; i < a->size(); ++i) spec.models.push_back(model_from_name(a->at(i).as_string()));
    }
    static const char* known_axes[] = {"shape", "num_tasks", "laxity", "workload", "model"};
    for (std::size_t i = 0; i < axes->size(); ++i) {
      const std::string& key = axes->member(i).first;
      bool ok = false;
      for (const char* k : known_axes) ok |= key == k;
      if (!ok) throw ModelError("scenario: unknown axis '" + key + "'");
    }
  }

  WorkloadParams& d = spec.defaults;
  if (const Json* defs = doc.find("defaults")) {
    if (!defs->is_object()) throw ModelError("scenario: 'defaults' must be an object");
    d.num_layers = static_cast<std::size_t>(int_field(*defs, "num_layers", static_cast<std::int64_t>(d.num_layers)));
    d.edge_prob = number_field(*defs, "edge_prob", d.edge_prob);
    d.comp_min = int_field(*defs, "comp_min", d.comp_min);
    d.comp_max = int_field(*defs, "comp_max", d.comp_max);
    d.msg_min = int_field(*defs, "msg_min", d.msg_min);
    d.msg_max = int_field(*defs, "msg_max", d.msg_max);
    d.ccr = number_field(*defs, "ccr", d.ccr);
    d.num_proc_types = static_cast<std::size_t>(int_field(*defs, "num_proc_types", static_cast<std::int64_t>(d.num_proc_types)));
    d.num_resources = static_cast<std::size_t>(int_field(*defs, "num_resources", static_cast<std::int64_t>(d.num_resources)));
    d.resource_prob = number_field(*defs, "resource_prob", d.resource_prob);
    d.release_spread = number_field(*defs, "release_spread", d.release_spread);
    d.preemptive_prob = number_field(*defs, "preemptive_prob", d.preemptive_prob);
    d.proc_cost_min = int_field(*defs, "proc_cost_min", d.proc_cost_min);
    d.proc_cost_max = int_field(*defs, "proc_cost_max", d.proc_cost_max);
    d.res_cost_min = int_field(*defs, "res_cost_min", d.res_cost_min);
    d.res_cost_max = int_field(*defs, "res_cost_max", d.res_cost_max);
    static const char* known[] = {"num_layers", "edge_prob", "comp_min", "comp_max",
                                  "msg_min", "msg_max", "ccr", "num_proc_types",
                                  "num_resources", "resource_prob", "release_spread",
                                  "preemptive_prob", "proc_cost_min", "proc_cost_max",
                                  "res_cost_min", "res_cost_max"};
    for (std::size_t i = 0; i < defs->size(); ++i) {
      const std::string& key = defs->member(i).first;
      bool ok = false;
      for (const char* k : known) ok |= key == k;
      if (!ok) throw ModelError("scenario: unknown default '" + key + "'");
    }
  }
  if (d.comp_min < 1 || d.comp_max < d.comp_min) throw ModelError("scenario: bad comp range");
  if (d.msg_min < 0 || d.msg_max < d.msg_min) throw ModelError("scenario: bad msg range");
  if (d.num_proc_types < 1) throw ModelError("scenario: need at least one processor type");

  static const char* known_top[] = {"name", "seed", "instances_per_cell", "axes", "defaults"};
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const std::string& key = doc.member(i).first;
    bool ok = false;
    for (const char* k : known_top) ok |= key == k;
    if (!ok) throw ModelError("scenario: unknown key '" + key + "'");
  }
  return spec;
}

Json ScenarioSpec::to_json() const {
  Json axes = Json::object();
  Json shapes_j = Json::array();
  for (GraphShape s : shapes) shapes_j.push(shape_name(s));
  Json tasks_j = Json::array();
  for (std::size_t n : task_counts) tasks_j.push(static_cast<std::int64_t>(n));
  Json lax_j = Json::array();
  for (double lax : laxities) lax_j.push(lax);
  Json workloads_j = Json::array();
  for (WorkloadForm w : workloads) workloads_j.push(workload_form_name(w));
  Json models_j = Json::array();
  for (SystemModel m : models) models_j.push(model_name(m));
  axes.set("shape", std::move(shapes_j))
      .set("num_tasks", std::move(tasks_j))
      .set("laxity", std::move(lax_j))
      .set("workload", std::move(workloads_j))
      .set("model", std::move(models_j));

  Json defs = Json::object();
  defs.set("num_layers", static_cast<std::int64_t>(defaults.num_layers))
      .set("edge_prob", defaults.edge_prob)
      .set("comp_min", defaults.comp_min)
      .set("comp_max", defaults.comp_max)
      .set("msg_min", defaults.msg_min)
      .set("msg_max", defaults.msg_max)
      .set("ccr", defaults.ccr)
      .set("num_proc_types", static_cast<std::int64_t>(defaults.num_proc_types))
      .set("num_resources", static_cast<std::int64_t>(defaults.num_resources))
      .set("resource_prob", defaults.resource_prob)
      .set("release_spread", defaults.release_spread)
      .set("preemptive_prob", defaults.preemptive_prob)
      .set("proc_cost_min", defaults.proc_cost_min)
      .set("proc_cost_max", defaults.proc_cost_max)
      .set("res_cost_min", defaults.res_cost_min)
      .set("res_cost_max", defaults.res_cost_max);

  Json doc = Json::object();
  doc.set("name", name)
      .set("seed", static_cast<std::int64_t>(seed))
      .set("instances_per_cell", static_cast<std::int64_t>(instances_per_cell))
      .set("axes", std::move(axes))
      .set("defaults", std::move(defs));
  return doc;
}

std::uint64_t ScenarioSpec::fingerprint() const { return fingerprint(to_json()); }

std::uint64_t ScenarioSpec::fingerprint(const Json& canonical) {
  const std::string canon = canonical.dump();
  // FNV-1a folded through splitmix64 for avalanche on short documents.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : canon) h = (h ^ c) * 0x100000001b3ULL;
  return split_seed(h, canon.size());
}

std::vector<ScenarioCell> ScenarioSpec::cells() const {
  std::vector<ScenarioCell> out;
  out.reserve(num_cells());
  std::size_t index = 0;
  for (GraphShape shape : shapes) {
    for (std::size_t n : task_counts) {
      for (double laxity : laxities) {
        for (WorkloadForm workload : workloads) {
          for (SystemModel model : models) {
            ScenarioCell cell;
            cell.index = index++;
            cell.shape = shape;
            cell.num_tasks = n;
            cell.laxity = laxity;
            cell.workload = workload;
            cell.model = model;
            out.push_back(cell);
          }
        }
      }
    }
  }
  return out;
}

std::uint64_t ScenarioSpec::instance_seed(std::size_t cell_index, std::size_t k) const {
  return split_seed(seed, cell_index, k);
}

WorkloadParams ScenarioSpec::instance_params(const ScenarioCell& cell, std::size_t k) const {
  WorkloadParams p = defaults;
  p.seed = instance_seed(cell.index, k);
  p.shape = cell.shape;
  p.num_tasks = cell.num_tasks;
  p.laxity = cell.laxity;
  return p;
}

ProblemInstance ScenarioSpec::build_instance(const ScenarioCell& cell, std::size_t k) const {
  const WorkloadParams params = instance_params(cell, k);
  if (cell.workload == WorkloadForm::Flat) return generate_workload(params);
  return generate_recurrent_instance(params, cell.workload == WorkloadForm::Periodic
                                                 ? ReleaseKind::kPeriodic
                                                 : ReleaseKind::kSporadic);
}

}  // namespace rtlb
