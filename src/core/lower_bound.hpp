// Step 3: the resource lower bound LB_r (Section 6).
//
//   LB_r = ceil( max over intervals [t1,t2] of Theta(r,t1,t2) / (t2-t1) )
//
// Evaluated exactly over the candidate points {E_i, L_i} of each partition
// block (Theorem 5 shows block-local evaluation loses nothing; the paper's
// Section 8 uses the same candidate points). Densities are compared with
// exact rational arithmetic -- no floating point.
//
// ENGINE. The maximization is decomposed into deterministic scan units --
// one unit per (partition block, chunk of candidate left endpoints) -- that
// are independent of each other: every unit scans with a fresh incumbent and
// accumulates its own peak/witness/work counters. Each block folds its units
// in unit order, and each resource reduces its blocks in block order, so the
// result (bound, peak density, witness interval, and intervals_evaluated) is
// bit-identical no matter how many threads executed the units. num_threads
// therefore changes wall-clock only, never output.
//
// Every entry point below -- resource_lower_bound, both all_resource_bounds,
// density_bound_over -- is one call of a single private driver. It takes one
// block list per result row (a Figure-4 partition from partition_blocks, or
// ST_r whole when partitioning is off) and an optional BlockScanCache. It
// resolves blocks against the cache, prepares and plans only the blocks it
// must scan, runs the units of all rows through one fan-out, and reduces.
// The block-level reduction is what makes per-block caching exact.
//
// ROW SWEEP. A unit walks its rows (one left endpoint t1 each) with one
// sweep carried from row to row instead of a sum per pair: for fixed t1
// every Psi of Theorems 3 and 4 is a clamped ramp in t2, so the row's Theta
// values come from slope/offset changes recorded at the block's sorted
// candidate points (RowSweep in lower_bound.cpp; docs/PIPELINE.md,
// "Bounds-stage internals"). The ramp of a task with E_i >= t1 and a window
// of at least C_i is the same in every such row, so the unit's first row
// records those once and each later row only drops the ones t1 has passed;
// a row adds (and the next undoes) just the ramps of tasks straddling t1
// and of windows narrower than C_i. A row costs O(points + straddling
// ramps * log points), plus O(points + n) per unit, where the per-pair sum
// cost O(points * range) per row. The per-pair sum (demand_flat) still
// runs in two places: the pruning probe, whose intervals [E_k, L_k] are one
// per task rather than a row, and blocks whose total demand saturates
// Time, which keep the historical first-overflow throw. The row order, the
// prune break and the witness rule are unchanged, so results and
// intervals_evaluated are exactly those of the per-pair scan.
//
// Pruning (opt-in) skips candidate intervals that provably cannot beat the
// prune floor: Theta(r,t1,t2) <= sum of C_i over the block, so when
// block_demand/(t2-t1) <= floor the pair (and, since the width only grows
// with t2, the rest of the row) is skipped. Because every unit scans with a
// fresh incumbent, each block first runs a PROBE pass -- the density of each
// task's own [E_i, L_i] window, itself a set of genuine candidate intervals
// -- whose peak seeds the floor of all of the block's units. Pruning never
// changes bound or peak_density; the witness is always valid (density ==
// peak, checked in debug builds) but on exact ties it may name a different
// equally-dense interval than the unpruned scan, and intervals_evaluated
// counts the probe pairs plus the surviving scan pairs. It defaults off so
// the default engine reports the paper's exact work measure. For a given
// options struct the result is still bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/ratio.hpp"
#include "src/core/est_lct.hpp"
#include "src/core/partition.hpp"
#include "src/model/application.hpp"

namespace rtlb {

struct LowerBoundOptions {
  /// Evaluate per partition block (Theorem 5) instead of over the full range
  /// of ST_r. Both settings return the same bound; partitioning evaluates
  /// far fewer intervals (see bench_partition).
  bool use_partitioning = true;

  /// Worker threads for the scan. 1 = serial (default); 0 = one per
  /// hardware thread; n > 1 = n workers. The pool never exceeds the scan
  /// units of the call. Results are bit-identical across all values (see
  /// the engine note above).
  int num_threads = 1;

  /// Skip candidate intervals whose best-possible density cannot beat the
  /// probe-seeded prune floor. Same bound and peak density, always a valid
  /// witness (an exact tie may pick a different equally-dense interval),
  /// fewer intervals evaluated on wide blocks. Off by default so
  /// intervals_evaluated stays the paper's exact pair count.
  bool enable_pruning = false;

  bool operator==(const LowerBoundOptions&) const = default;
};

struct ResourceBound {
  ResourceId resource = kInvalidResource;

  /// LB_r: minimum units of the resource any feasible system must provide.
  std::int64_t bound = 0;

  /// The maximizing density Theta/(t2-t1), exact.
  Ratio peak_density{0, 1};

  /// The witness interval achieving the peak density, and its demand. When
  /// the peak is positive the witness always satisfies
  /// witness_demand / (witness_t2 - witness_t1) == peak_density (checked in
  /// debug builds); ties across blocks resolve to the earliest unit in scan
  /// order.
  Time witness_t1 = 0;
  Time witness_t2 = 0;
  Time witness_demand = 0;

  /// Number of (t1, t2) pairs evaluated -- the work measure the partitioning
  /// of Section 5 is designed to reduce (and pruning reduces further).
  std::uint64_t intervals_evaluated = 0;

  /// Every field exactly; peak_density by numerator and denominator as the
  /// report prints it (Ratio's own == is value equality: 1/2 == 2/4). The
  /// binding names every field, so adding one stops the build here until
  /// this comparison covers it.
  bool operator==(const ResourceBound& o) const {
    [[maybe_unused]] const auto& [resource_, bound_, peak_, t1_, t2_, demand_, intervals_] = *this;
    return resource == o.resource && bound == o.bound &&
           peak_density.num == o.peak_density.num && peak_density.den == o.peak_density.den &&
           witness_t1 == o.witness_t1 && witness_t2 == o.witness_t2 &&
           witness_demand == o.witness_demand && intervals_evaluated == o.intervals_evaluated;
  }
};

/// LB_r for one resource.
ResourceBound resource_lower_bound(const Application& app, const TaskWindows& windows,
                                   ResourceId r, const LowerBoundOptions& opts = {});

/// LB_r for every r in RES, in resource_set() order. With opts.num_threads
/// != 1 the (resource, block, chunk) scan units of ALL resources are fanned
/// out over one pool, so small resources do not serialize behind large ones.
/// Partitions ST_r itself; the overload below takes partitions already made.
std::vector<ResourceBound> all_resource_bounds(const Application& app,
                                               const TaskWindows& windows,
                                               const LowerBoundOptions& opts = {});

class BlockScanCache;

/// all_resource_bounds over `partitions`, which must be partition_all(app,
/// windows) (the pipeline hands over its kPartitions artifact, so ST_r is
/// partitioned once per query). With opts.use_partitioning off they only
/// name the resources, and each ST_r is scanned as one block.
///
/// With a non-null `cache`, every block is first looked up there and only
/// the misses are scanned (then stored). Bit-identical to the uncached call
/// for every input -- a hit replays a scan whose inputs were value-equal.
/// Feed a cache one `opts` (enable_pruning is part of the key, so mixing is
/// safe but wastes entries). A null cache builds no keys at all.
std::vector<ResourceBound> all_resource_bounds(const Application& app,
                                               const TaskWindows& windows,
                                               const std::vector<ResourcePartition>& partitions,
                                               const LowerBoundOptions& opts,
                                               BlockScanCache* cache = nullptr);

/// The same density maximization over an ARBITRARY task set (used by the
/// conjunctive joint bounds): partitions `tasks` into window-disjoint blocks
/// internally and returns a ResourceBound with `resource` left invalid.
ResourceBound density_bound_over(const Application& app, const TaskWindows& windows,
                                 std::vector<TaskId> tasks,
                                 const LowerBoundOptions& opts = {});

/// Theta(t1, t2) over `tasks` for every candidate point t2 > t1 of the
/// block they form (each E_i and L_i), as {t2, Theta} in ascending t2,
/// computed the way the engine computes a scan row (see the engine note).
/// Equal to demand(app, windows, tasks, t1, t2) at every t2; exposed so the
/// tests can hold the row sweep against demand().
std::vector<std::pair<Time, Time>> row_demand(const Application& app,
                                              const TaskWindows& windows,
                                              std::vector<TaskId> tasks, Time t1);

/// What one partition block contributes to a resource's bound: its peak
/// density with witness, and the number of candidate pairs evaluated. This
/// is the unit the engine reduces internally; it is exposed so the
/// memoized query path (AnalysisSession) can cache it per block.
struct BlockScanResult {
  Ratio peak{0, 1};
  Time witness_t1 = 0;
  Time witness_t2 = 0;
  Time witness_demand = 0;
  bool has_witness = false;
  std::uint64_t evaluated = 0;
};

/// Memo table for per-block scan results (Theorem 5 makes block-level reuse
/// sound: a block's contribution depends only on its tasks' windows,
/// computation times, and preemptive flags). The key is exactly that
/// geometry -- task identity is deliberately NOT part of it, so identical
/// blocks are shared across resources (e.g. a {P1}+{r1} task pair produces
/// the same block under both resources) and even across re-generated
/// applications. A lookup costs O(block size); a scan costs O(points^2)
/// for its pairs alone, plus the sweep's per-row ramps; every hit therefore
/// skips the dominant cost of the query.
class BlockScanCache {
 public:
  /// Flattened exact geometry: [pruning, n, then per task est, lct, comp,
  /// preemptive]. Exact-value keys (not hashes) -- a hit is a PROOF of
  /// equality, so cached results are bit-identical by construction.
  using Key = std::vector<std::int64_t>;
  struct Entry {
    BlockScanResult probe;  ///< pruning probe (empty when pruning is off)
    BlockScanResult scan;   ///< the block's scan units folded in unit order
  };

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

  /// The entry for `key`, or null; counts a hit or a miss. The pointer is
  /// valid until the next store().
  const Entry* lookup(const Key& key);
  /// Record a scanned block. The table is cleared wholesale when full.
  void store(Key key, Entry entry);

 private:
  /// Safety valve: a session that never repeats a block (e.g. an endless
  /// randomized search) must not grow the table without bound.
  static constexpr std::size_t kMaxEntries = 1 << 16;

  std::map<Key, Entry> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace rtlb
