// Streaming fleet aggregates: everything the runner keeps per instance is
// folded into these counters immediately, so a 10^6-instance run holds one
// instance (per worker) in memory at a time.
//
// Mergeability contract: every field is either an exact integer counter/sum
// or a list of records keyed by global instance index. Counters commute and
// associate, and to_json() sorts the record lists, so aggregates produced
// by ANY sharding of the same index set serialize byte-identically -- the
// property the checkpoint/resume and shard-merge tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/fleet/scenario.hpp"

namespace rtlb {

/// Integer histogram over per-mille values with fixed upper-edge buckets;
/// counts[i] holds values v with v < edges[i] (first matching i), the last
/// bucket is the overflow.
struct Histogram {
  std::vector<std::int64_t> edges;
  std::vector<std::uint64_t> counts;

  Histogram() = default;
  explicit Histogram(std::vector<std::int64_t> upper_edges);

  void add(std::int64_t per_mille);
  void merge(const Histogram& other);  // RTLB_CHECKs equal edges
  std::uint64_t total() const;

  Json to_json() const;
  static Histogram from_json(const Json& doc);
};

/// The tightness histogram's shared bucket layout: LB_paper / LB_work in
/// per-mille, buckets at 1.0x .. >10x. Defined once so every shard agrees.
Histogram make_tightness_histogram();

/// One divergence or certificate-check failure, with the full reproducer
/// coordinates: regenerate with spec.build_instance(cells()[cell_index],
/// instance_index) -- `seed` is recorded redundantly as a cross-check.
struct DivergenceRecord {
  std::uint64_t global_index = 0;
  std::uint64_t cell_index = 0;
  std::uint64_t instance_index = 0;
  std::uint64_t seed = 0;
  std::string cell;        ///< cell label at record time
  std::string oracle;      ///< "parallel", "session", "certificate",
                           ///< "cert-roundtrip", "lint", "exception"
  std::string detail;
  std::string reproducer;  ///< path of the minimized .rtlb, when written

  Json to_json() const;
  static DivergenceRecord from_json(const Json& doc);
};

struct CellAggregate {
  std::string label;  ///< from the spec's cell enumeration
  std::uint64_t instances = 0;
  std::uint64_t lint_errors = 0;
  std::uint64_t lint_warnings = 0;
  std::uint64_t lint_notes = 0;
  std::uint64_t lint_clean_instances = 0;
  std::uint64_t infeasible_instances = 0;
  /// Resources with a non-trivial single-interval work bound -- the
  /// denominator population of the tightness histogram.
  std::uint64_t resources_measured = 0;
  std::int64_t tightness_per_mille_sum = 0;
  std::int64_t bound_sum = 0;  ///< sum of LB_r over all measured resources
  std::uint64_t divergences = 0;
  std::uint64_t check_failures = 0;
  Histogram tightness = make_tightness_histogram();

  void merge(const CellAggregate& other);
  Json to_json() const;
  static CellAggregate from_json(const Json& doc);
};

struct FleetAggregates {
  std::uint64_t instances = 0;
  std::uint64_t analyses = 0;  ///< pipeline runs incl. oracle re-analyses
  std::vector<CellAggregate> cells;
  std::vector<DivergenceRecord> divergences;

  /// Sized-and-labelled for a spec (one CellAggregate per cell, in order).
  static FleetAggregates for_spec(const ScenarioSpec& spec);

  void merge(const FleetAggregates& other);  // RTLB_CHECKs equal cell count
  bool clean() const { return divergences.empty(); }

  /// Exact serialization (checkpoint + shard exchange + final report). The
  /// derived convenience fields ("mean_tightness") are emitted for readers
  /// but recomputed, never parsed back.
  Json to_json() const;
  static FleetAggregates from_json(const Json& doc);
};

}  // namespace rtlb
