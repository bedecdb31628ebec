#include "src/fleet/aggregate.hpp"

#include <algorithm>

namespace rtlb {

namespace {

std::uint64_t u64_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_int()) {
    throw ModelError(std::string("fleet aggregates: missing integer '") + key + "'");
  }
  return static_cast<std::uint64_t>(v->as_int());
}

std::int64_t i64_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_int()) {
    throw ModelError(std::string("fleet aggregates: missing integer '") + key + "'");
  }
  return v->as_int();
}

std::string string_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    throw ModelError(std::string("fleet aggregates: missing string '") + key + "'");
  }
  return v->as_string();
}

}  // namespace

Histogram::Histogram(std::vector<std::int64_t> upper_edges)
    : edges(std::move(upper_edges)), counts(edges.size() + 1, 0) {
  RTLB_CHECK(std::is_sorted(edges.begin(), edges.end()), "histogram edges must ascend");
}

void Histogram::add(std::int64_t per_mille) {
  std::size_t i = 0;
  while (i < edges.size() && per_mille >= edges[i]) ++i;
  ++counts[i];
}

void Histogram::merge(const Histogram& other) {
  RTLB_CHECK(edges == other.edges, "histogram merge: bucket layouts differ");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
}

std::uint64_t Histogram::total() const {
  std::uint64_t t = 0;
  for (std::uint64_t c : counts) t += c;
  return t;
}

void Histogram::write_json(JsonWriter& w) const {
  w.begin_object().key("edges_per_mille").begin_array();
  for (std::int64_t x : edges) w.value(x);
  w.end_array().key("counts").begin_array();
  for (std::uint64_t x : counts) w.value(static_cast<std::int64_t>(x));
  w.end_array().end_object();
}

Histogram Histogram::from_json(const Json& doc) {
  const Json* e = doc.find("edges_per_mille");
  const Json* c = doc.find("counts");
  if (e == nullptr || !e->is_array() || c == nullptr || !c->is_array() ||
      c->size() != e->size() + 1) {
    throw ModelError("fleet aggregates: malformed histogram");
  }
  std::vector<std::int64_t> edges;
  for (std::size_t i = 0; i < e->size(); ++i) edges.push_back(e->at(i).as_int());
  Histogram h(std::move(edges));
  for (std::size_t i = 0; i < c->size(); ++i) {
    h.counts[i] = static_cast<std::uint64_t>(c->at(i).as_int());
  }
  return h;
}

Histogram make_tightness_histogram() {
  // Upper edges in per-mille of LB_paper / LB_work: exactly-1.0x (the paper
  // bound adds nothing over the single-interval work bound), then
  // geometric-ish steps to the >10x overflow bucket.
  return Histogram({1001, 1100, 1250, 1500, 2000, 3000, 5000, 10000});
}

void DivergenceRecord::write_json(JsonWriter& w) const {
  w.begin_object()
      .field("global_index", static_cast<std::int64_t>(global_index))
      .field("cell_index", static_cast<std::int64_t>(cell_index))
      .field("instance_index", static_cast<std::int64_t>(instance_index))
      .field("seed", static_cast<std::int64_t>(seed))
      .field("cell", cell)
      .field("oracle", oracle)
      .field("detail", detail)
      .field("reproducer", reproducer)
      .end_object();
}

DivergenceRecord DivergenceRecord::from_json(const Json& doc) {
  DivergenceRecord r;
  r.global_index = u64_field(doc, "global_index");
  r.cell_index = u64_field(doc, "cell_index");
  r.instance_index = u64_field(doc, "instance_index");
  r.seed = u64_field(doc, "seed");
  r.cell = string_field(doc, "cell");
  r.oracle = string_field(doc, "oracle");
  r.detail = string_field(doc, "detail");
  r.reproducer = string_field(doc, "reproducer");
  return r;
}

void CellAggregate::merge(const CellAggregate& other) {
  RTLB_CHECK(label == other.label, "cell merge: labels differ");
  instances += other.instances;
  lint_errors += other.lint_errors;
  lint_warnings += other.lint_warnings;
  lint_notes += other.lint_notes;
  lint_clean_instances += other.lint_clean_instances;
  infeasible_instances += other.infeasible_instances;
  resources_measured += other.resources_measured;
  tightness_per_mille_sum += other.tightness_per_mille_sum;
  bound_sum += other.bound_sum;
  divergences += other.divergences;
  check_failures += other.check_failures;
  tightness.merge(other.tightness);
}

void CellAggregate::write_json(JsonWriter& w) const {
  w.begin_object()
      .field("cell", label)
      .field("instances", static_cast<std::int64_t>(instances))
      .field("lint_errors", static_cast<std::int64_t>(lint_errors))
      .field("lint_warnings", static_cast<std::int64_t>(lint_warnings))
      .field("lint_notes", static_cast<std::int64_t>(lint_notes))
      .field("lint_clean_instances", static_cast<std::int64_t>(lint_clean_instances))
      .field("infeasible_instances", static_cast<std::int64_t>(infeasible_instances))
      .field("resources_measured", static_cast<std::int64_t>(resources_measured))
      .field("tightness_per_mille_sum", tightness_per_mille_sum)
      .field("bound_sum", bound_sum)
      .field("divergences", static_cast<std::int64_t>(divergences))
      .field("check_failures", static_cast<std::int64_t>(check_failures));
  tightness.write_json(w.key("tightness"));
  // Derived, for readers only (never parsed back): mean tightness ratio.
  if (resources_measured > 0) {
    w.field("mean_tightness", static_cast<double>(tightness_per_mille_sum) /
                                  (1000.0 * static_cast<double>(resources_measured)));
  }
  w.end_object();
}

CellAggregate CellAggregate::from_json(const Json& doc) {
  CellAggregate c;
  c.label = string_field(doc, "cell");
  c.instances = u64_field(doc, "instances");
  c.lint_errors = u64_field(doc, "lint_errors");
  c.lint_warnings = u64_field(doc, "lint_warnings");
  c.lint_notes = u64_field(doc, "lint_notes");
  c.lint_clean_instances = u64_field(doc, "lint_clean_instances");
  c.infeasible_instances = u64_field(doc, "infeasible_instances");
  c.resources_measured = u64_field(doc, "resources_measured");
  c.tightness_per_mille_sum = i64_field(doc, "tightness_per_mille_sum");
  c.bound_sum = i64_field(doc, "bound_sum");
  c.divergences = u64_field(doc, "divergences");
  c.check_failures = u64_field(doc, "check_failures");
  const Json* h = doc.find("tightness");
  if (h == nullptr) throw ModelError("fleet aggregates: cell missing 'tightness'");
  c.tightness = Histogram::from_json(*h);
  return c;
}

FleetAggregates FleetAggregates::for_spec(const ScenarioSpec& spec) {
  FleetAggregates agg;
  agg.cells.reserve(spec.num_cells());
  for (const ScenarioCell& cell : spec.cells()) {
    CellAggregate c;
    c.label = cell.label();
    agg.cells.push_back(std::move(c));
  }
  return agg;
}

void FleetAggregates::merge(const FleetAggregates& other) {
  RTLB_CHECK(cells.size() == other.cells.size(), "fleet merge: cell counts differ");
  instances += other.instances;
  analyses += other.analyses;
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].merge(other.cells[i]);
  divergences.insert(divergences.end(), other.divergences.begin(), other.divergences.end());
}

JsonRender FleetAggregates::to_json() const {
  return JsonRender([this](JsonWriter& w) {
    std::vector<const DivergenceRecord*> sorted;
    for (const DivergenceRecord& r : divergences) sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const DivergenceRecord* a, const DivergenceRecord* b) {
                return a->global_index < b->global_index;
              });
    w.begin_object()
        .field("instances", static_cast<std::int64_t>(instances))
        .field("analyses", static_cast<std::int64_t>(analyses))
        .field("divergence_count", static_cast<std::int64_t>(sorted.size()))
        .key("cells")
        .begin_array();
    for (const CellAggregate& c : cells) c.write_json(w);
    w.end_array().key("divergences").begin_array();
    for (const DivergenceRecord* r : sorted) r->write_json(w);
    w.end_array().end_object();
  });
}

FleetAggregates FleetAggregates::from_json(const Json& doc) {
  FleetAggregates agg;
  agg.instances = u64_field(doc, "instances");
  agg.analyses = u64_field(doc, "analyses");
  const Json* cells_j = doc.find("cells");
  if (cells_j == nullptr || !cells_j->is_array()) {
    throw ModelError("fleet aggregates: missing 'cells'");
  }
  for (std::size_t i = 0; i < cells_j->size(); ++i) {
    agg.cells.push_back(CellAggregate::from_json(cells_j->at(i)));
  }
  const Json* div_j = doc.find("divergences");
  if (div_j == nullptr || !div_j->is_array()) {
    throw ModelError("fleet aggregates: missing 'divergences'");
  }
  for (std::size_t i = 0; i < div_j->size(); ++i) {
    agg.divergences.push_back(DivergenceRecord::from_json(div_j->at(i)));
  }
  return agg;
}

}  // namespace rtlb
