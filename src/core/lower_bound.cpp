#include "src/core/lower_bound.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "src/common/thread_pool.hpp"
#include "src/core/overlap.hpp"

namespace rtlb {

namespace {

/// Target number of (t1, t2) pairs per scan unit without pruning. Rows are
/// grouped into units by pair count (row l of an n-point block holds n-1-l
/// pairs) so the units are load-balanced.
constexpr std::uint64_t kPairsPerUnit = 4096;

/// Target number of SURVIVING pairs per scan unit with pruning on. The
/// nominal pair count wildly overstates a pruned unit's real work: the
/// probe-seeded floor breaks out of most rows after a few pairs, so units
/// sized by nominal pairs degenerate into a few units holding nearly all of
/// the surviving work -- the pool idles and parallel+prune used to run no
/// faster than serial+prune. Pruned units are therefore sized by the number
/// of pairs that survive the probe floor (see plan_block_units), which
/// spreads the real work evenly. The grain is smaller than kPairsPerUnit
/// because surviving pairs all pay a Theta evaluation (a RowSweep step plus
/// their row's share of its straddling ramps), where nominal pairs are
/// mostly cut off unread. Unit boundaries reset the unit's own prune
/// incumbent, so both grains are part of the intervals_evaluated contract.
constexpr std::uint64_t kSurvivingPairsPerUnit = 256;

/// What one unit (or a block's probe pass) reports back; merged in
/// deterministic order afterwards. Public as BlockScanResult so
/// BlockScanCache can store folded per-block copies.
using UnitResult = BlockScanResult;

/// Accumulate `r` into `acc` with the engine's reduction rule: work adds up,
/// the peak is the maximum, and the witness is the FIRST result (in fold
/// order) that attains the peak -- a strictly-greater test, so later ties
/// never displace an earlier witness. Folding a block's units into one
/// UnitResult and absorbing that is therefore equivalent to absorbing the
/// units one by one, which is what makes per-block caching exact.
void fold_unit(UnitResult& acc, const UnitResult& r) {
  acc.evaluated += r.evaluated;
  if (r.has_witness && r.peak > acc.peak) {
    acc.peak = r.peak;
    acc.witness_t1 = r.witness_t1;
    acc.witness_t2 = r.witness_t2;
    acc.witness_demand = r.witness_demand;
    acc.has_witness = true;
  }
}

/// One partition block: its task set (a view into the caller's partition)
/// and, once prepare_scan has run, the sorted unique candidate endpoints
/// {E_i, L_i}, the block's total computation time (an upper bound on Theta
/// over ANY interval), and -- when pruning is on -- the probe result that
/// seeds every unit's prune floor. `scan` is the block's units folded in
/// unit order (or, with `probe`, a cache hit's stored replay).
struct BlockScan {
  std::span<const TaskId> tasks;
  std::vector<Time> points;
  Time total_demand = 0;
  UnitResult probe;
  UnitResult scan;
  /// The scan loop's working set, flattened: Psi reads (comp, E, L,
  /// preemptive) per task and nothing else, so the inner loop walks four
  /// contiguous arrays instead of pointer-chasing Task structs and separate
  /// window vectors per pair. Original block.tasks order (the overflow
  /// slow path iterates it to keep historical behaviour exactly).
  std::vector<Time> comp, est, lct;
  std::vector<char> preemptive;
  /// The same four attributes re-sorted by EST ascending: a task overlaps
  /// [t1, t2] only if E_i < t2 AND L_i > t1, and L_i <= E_i + max_window
  /// bounds the second condition by E_i > t1 - max_window, so each Theta
  /// evaluation walks one contiguous EST range (two binary searches)
  /// instead of branching through the whole block. The tighter the windows,
  /// the smaller the range -- exactly the instances whose scans are big.
  std::vector<Time> comp_by_est, est_by_est, lct_by_est;
  std::vector<char> preemptive_by_est;
  Time max_window = 0;  ///< max over tasks of L_i - E_i
  Time max_comp = 0;    ///< max over tasks of C_i
  /// Per task in *_by_est order, the index in `points` of E_i and of L_i,
  /// and the first index whose point is > L_i - C_i (RowSweep's fixed
  /// breakpoints).
  std::vector<std::size_t> k_est, k_lct, k_slack;
  /// The *_by_est indices, ascending, of the tasks whose window is narrower
  /// than C_i > 0 (L_i - C_i < E_i): RowSweep adds their ramps row by row.
  std::vector<std::size_t> narrow;
  /// Per left endpoint index l, with pruning on, one past the last right
  /// endpoint that survives the probe floor (row_cut).
  std::vector<std::size_t> probe_cut;
  /// Whether scan rows take RowSweep: the total demand did not saturate
  /// (so every Theta fits in Time) and no C_i is negative (Psi = C_i < 0
  /// has no ramp form). Otherwise every pair goes through demand_flat.
  bool sweep = false;
};

/// Theta over a block from its flat arrays; value-identical to
/// demand(app, windows, block.tasks, ...) -- the same multiset of Psi terms
/// (zero terms dropped, which cannot change an exact sum) and the same
/// overflow rejection.
///
/// Fast path: Psi_i <= C_i, so every partial sum is bounded by Sum C_i =
/// total_demand. When that total itself did not saturate, no Theta sum can
/// overflow, the per-add check is provably dead, and the sum is
/// order-independent -- which is what licenses the EST-sorted iteration
/// order and the E_i >= t2 prefix cut. A saturated total falls back to the
/// original order WITH the per-add check, preserving the historical
/// first-overflow behaviour.
/// Index range [begin, end) into the *_by_est arrays of the tasks that can
/// overlap [t1, t2]: E_i < t2 directly, and L_i > t1 requires
/// E_i > t1 - max_window (windows are at most max_window wide); t1 is a
/// window endpoint, so no underflow.
struct EstRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

EstRange est_range(const BlockScan& block, Time t1, Time t2) {
  const auto first = block.est_by_est.begin();
  const auto hi = std::lower_bound(first, block.est_by_est.end(), t2);
  const auto lo = std::upper_bound(first, hi, t1 - block.max_window);
  return {static_cast<std::size_t>(lo - first), static_cast<std::size_t>(hi - first)};
}

Time demand_est_range(const BlockScan& block, EstRange r, Time t1, Time t2) {
  Time sum = 0;
  for (std::size_t i = r.begin; i < r.end; ++i) {
    // Each overlap term is <= C_i, so the sum is <= the block's total
    // demand, which the cache construction already proved within Time via
    // __builtin_add_overflow (BlockScan::total_demand).
    // audit-ok: RTLB-A302 sum bounded by total_demand, proved at cache build
    sum += block.preemptive_by_est[i]
               ? overlap_preemptive(block.comp_by_est[i], block.est_by_est[i],
                                    block.lct_by_est[i], t1, t2)
               : overlap_nonpreemptive(block.comp_by_est[i], block.est_by_est[i],
                                       block.lct_by_est[i], t1, t2);
  }
  return sum;
}

Time demand_flat(const BlockScan& block, Time t1, Time t2) {
  if (block.total_demand != std::numeric_limits<Time>::max()) {
    return demand_est_range(block, est_range(block, t1, t2), t1, t2);
  }
  Time sum = 0;
  for (std::size_t i = 0; i < block.comp.size(); ++i) {
    const Time psi = block.preemptive[i]
                         ? overlap_preemptive(block.comp[i], block.est[i], block.lct[i], t1, t2)
                         : overlap_nonpreemptive(block.comp[i], block.est[i], block.lct[i], t1, t2);
    if (__builtin_add_overflow(sum, psi, &sum)) {
      throw ModelError("demand: accumulated Theta overflows Time");
    }
  }
  return sum;
}

/// Theta(t1, ·) along the scan rows of one unit, from each task's
/// breakpoints instead of a sum per pair, carried from row to row.
///
/// Fix t1 and let h_i = C_i - max(0, t1 - E_i). For every t2 > t1,
/// Theorems 3 and 4 reduce to Psi(i, t1, t2) = [t2 > E_i] *
/// clamp(t2 - s_i, 0, h_i), with s_i = L_i - h_i for a preemptive task and
/// s_i = max(L_i - C_i, t1) for a non-preemptive one; the term is 0 for
/// every t2 when h_i <= 0 or L_i <= t1. Each term is thus a ramp of slope 1
/// from s_i to q_i = s_i + h_i, cut off at or before E_i (when s_i < E_i,
/// which only a window narrower than C_i allows, the cut is a jump).
///
/// The row's right endpoints are the block's sorted candidate points, so a
/// ramp enters Theta at the first candidate past max(s_i, E_i) with slope 1
/// and offset -s_i, and leaves it at the first candidate past q_i with
/// slope -1 and offset +q_i. The sweep keeps those slope and offset changes
/// per candidate index; next() walks a row as two running sums:
/// Theta(t1, t2) = slope * t2 + offset.
///
/// A task with E_i >= t1 whose window holds C_i (L_i - C_i >= E_i) has the
/// same ramp in every such row, from s_i = L_i - C_i to L_i at indices fixed
/// per block (BlockScan::k_slack and k_lct): the first row() records the
/// fixed ramps once, and each later row() drops those of the tasks t1 has
/// just passed. A row then adds, and the next row undoes, only the ramps of
/// tasks that straddle t1 (t1 - max C < E_i < t1, where h_i > 0 is still
/// possible; one binary search each) and of the usually empty list of
/// windows narrower than C_i with E_i >= t1. A row costs O(points +
/// straddling ramps * log points); the first also costs O(points + tasks).
///
/// Arithmetic: breakpoints, offsets and the running sums are __int128 (n
/// terms of magnitude < 2^65); the result is exactly Theta, which lies in
/// [0, total_demand] and so fits in Time on a block with BlockScan::sweep.
class RowSweep {
 public:
  /// Move to the row at t1 over the candidates [first, end) of `block`,
  /// where `first` is the first candidate point > t1. Every call passes the
  /// same block, and no row lies left of the first.
  void row(const BlockScan& block, Time t1, std::size_t first, std::size_t end) {
    if (block_ == nullptr) start(block, t1);
    for (const Change& c : undo_) {
      slope_[c.at] -= c.slope;
      offset_[c.at] -= c.offset;
    }
    undo_.clear();
    const std::size_t tasks = block.est_by_est.size();
    for (; passed_ < tasks && block.est_by_est[passed_] < t1; ++passed_) move_fixed(passed_, -1);
    const __int128 reach = static_cast<__int128>(t1) - block.max_comp;
    while (straddle_ < passed_ && block.est_by_est[straddle_] <= reach) ++straddle_;
    for (std::size_t i = straddle_; i < passed_; ++i) add(i, t1, first, end);
    while (narrow_ < block.narrow.size() && block.est_by_est[block.narrow[narrow_]] < t1) {
      ++narrow_;
    }
    for (std::size_t j = narrow_; j < block.narrow.size(); ++j) {
      const std::size_t i = block.narrow[j];
      if (block.k_est[i] + 1 >= end) break;  // the ramp enters past the row
      add(i, t1, first, end);
    }
    next_ = first;
    slope_sum_ = 0;
    offset_sum_ = 0;
  }

  /// Theta(t1, t2) for t2 = points[first], points[first + 1], ... in turn.
  Time next(Time t2) {
    slope_sum_ += slope_[next_];
    offset_sum_ += offset_[next_];
    ++next_;
    return static_cast<Time>(static_cast<__int128>(slope_sum_) * t2 + offset_sum_);
  }

 private:
  struct Change {
    std::size_t at;
    std::int64_t slope;
    __int128 offset;
  };

  /// Record the fixed ramps of every task with E_i >= t1.
  void start(const BlockScan& block, Time t1) {
    block_ = &block;
    const std::size_t n = block.points.size();
    slope_.assign(n + 1, 0);
    offset_.assign(n + 1, 0);
    const auto est = block.est_by_est.begin();
    passed_ = static_cast<std::size_t>(
        std::lower_bound(est, block.est_by_est.end(), t1) - est);
    for (std::size_t i = passed_; i < block.est_by_est.size(); ++i) move_fixed(i, 1);
  }

  /// Add (sign 1) or remove (sign -1) task i's fixed ramp, if it has one.
  void move_fixed(std::size_t i, int sign) {
    const BlockScan& block = *block_;
    const Time c = block.comp_by_est[i];
    if (c <= 0 || block.k_slack[i] <= block.k_est[i]) return;  // narrow or empty
    const __int128 l = block.lct_by_est[i];
    slope_[block.k_slack[i]] += sign;
    offset_[block.k_slack[i]] -= sign * (l - c);
    slope_[block.k_lct[i] + 1] -= sign;
    offset_[block.k_lct[i] + 1] += sign * l;
  }

  void change(std::size_t at, std::int64_t slope, __int128 offset) {
    slope_[at] += slope;
    offset_[at] += offset;
    undo_.push_back({at, slope, offset});
  }

  /// Task i's ramp in the row at t1, over the candidates [first, end).
  void add(std::size_t i, Time t1, std::size_t first, std::size_t end) {
    const BlockScan& block = *block_;
    const __int128 e = block.est_by_est[i];
    const __int128 l = block.lct_by_est[i];
    const __int128 c = block.comp_by_est[i];
    if (l <= t1) return;
    const __int128 h = e >= t1 ? c : c - (t1 - e);
    if (h <= 0) return;
    // Ramp [s, q] and the candidate indices it enters and leaves at.
    const auto search = [&](__int128 pos) {
      return static_cast<std::size_t>(
          std::upper_bound(block.points.begin() + static_cast<std::ptrdiff_t>(first),
                           block.points.begin() + static_cast<std::ptrdiff_t>(end), pos,
                           [](__int128 v, Time p) { return v < p; }) -
          block.points.begin());
    };
    const std::size_t after_l = block.k_lct[i] + 1;
    __int128 s, q;
    std::size_t enter, leave;
    if (block.preemptive_by_est[i]) {
      s = l - h;
      q = l;
      enter = e >= t1 ? block.k_slack[i] : search(s);
      leave = after_l;
    } else if (l - c >= t1) {
      s = l - c;
      q = s + h;
      enter = block.k_slack[i];
      leave = e >= t1 ? after_l : search(q);
    } else {
      s = t1;
      q = s + h;
      enter = first;
      leave = search(q);
    }
    enter = std::max({enter, block.k_est[i] + 1, first});
    if (enter >= end) return;
    change(enter, 1, -s);
    leave = std::max(leave, enter);
    if (leave >= end) return;
    change(leave, -1, q);
  }

  const BlockScan* block_ = nullptr;
  std::vector<std::int64_t> slope_;
  std::vector<__int128> offset_;
  std::vector<Change> undo_;   ///< this row's own ramps, undone by the next row
  std::size_t passed_ = 0;     ///< first task (EST order) with E_i >= t1
  std::size_t straddle_ = 0;   ///< first task with E_i > t1 - max C
  std::size_t narrow_ = 0;     ///< first BlockScan::narrow entry with E_i >= t1
  std::size_t next_ = 0;
  std::int64_t slope_sum_ = 0;
  __int128 offset_sum_ = 0;
};

/// A chunk of consecutive left endpoints [l_begin, l_end) of one block.
struct ScanUnit {
  std::size_t block = 0;
  std::size_t l_begin = 0;
  std::size_t l_end = 0;
};

/// The pruning probe: evaluate each task's own [E_i, L_i] window (these are
/// genuine candidate intervals, and a stacked burst of tasks shows its full
/// density over any member's window). The result is a lower bound on the
/// block's true peak that every unit can prune against from its first row --
/// crucial because units scan with fresh incumbents. Runs once per block,
/// deterministically, so results stay thread-count independent.
UnitResult probe_block(const BlockScan& block) {
  UnitResult res;
  for (std::size_t k = 0; k < block.tasks.size(); ++k) {
    const Time t1 = block.est[k];
    const Time t2 = block.lct[k];
    if (t1 >= t2) continue;
    const Time theta = demand_flat(block, t1, t2);
    ++res.evaluated;
    if (Ratio{theta, t2 - t1} > res.peak) {
      res.peak = Ratio{theta, t2 - t1};
      res.witness_t1 = t1;
      res.witness_t2 = t2;
      res.witness_demand = theta;
      res.has_witness = true;
    }
  }
  return res;
}

/// The first k in [lo, hi) at which row l's best-possible density
/// total_demand / (points[k] - points[l]) no longer strictly beats `floor`,
/// or hi. The width grows along the row, so the pairs that beat the floor
/// form a prefix and one binary search finds its end.
std::size_t row_cut(const BlockScan& block, std::size_t l, std::size_t lo, std::size_t hi,
                    const Ratio& floor) {
  const Time t1 = block.points[l];
  const auto points = block.points.begin();
  return static_cast<std::size_t>(
      std::partition_point(points + static_cast<std::ptrdiff_t>(lo),
                           points + static_cast<std::ptrdiff_t>(hi),
                           [&](Time t2) { return Ratio{block.total_demand, t2 - t1} > floor; }) -
      points);
}

/// Fill in everything a scan of `block` reads: the candidate points, the
/// flat arrays in block and EST order, the total demand, RowSweep's fixed
/// breakpoint indices and narrow windows, and -- with pruning -- the probe
/// and each row's probe cut. Scan units are planned afterwards
/// (plan_block_units), because pruned units are sized by how much work
/// survives the probe floor.
void prepare_scan(BlockScan& block, const Application& app, const TaskWindows& windows,
                  bool pruning) {
  const std::span<const TaskId> tasks = block.tasks;
  block.points.reserve(tasks.size() * 2);
  block.comp.reserve(tasks.size());
  block.est.reserve(tasks.size());
  block.lct.reserve(tasks.size());
  block.preemptive.reserve(tasks.size());
  for (TaskId i : tasks) {
    const Task& t = app.task(i);
    block.points.push_back(windows.est[i]);
    block.points.push_back(windows.lct[i]);
    block.comp.push_back(t.comp);
    block.est.push_back(windows.est[i]);
    block.lct.push_back(windows.lct[i]);
    block.preemptive.push_back(t.preemptive ? 1 : 0);
    block.max_window = std::max(block.max_window, windows.lct[i] - windows.est[i]);
    block.max_comp = std::max(block.max_comp, t.comp);
    // Saturating sum: an overflowed total would only weaken pruning, never
    // the bound, but keep it a valid upper bound on Theta anyway.
    if (__builtin_add_overflow(block.total_demand, t.comp, &block.total_demand)) {
      block.total_demand = std::numeric_limits<Time>::max();
    }
  }
  std::sort(block.points.begin(), block.points.end());
  block.points.erase(std::unique(block.points.begin(), block.points.end()),
                     block.points.end());
  std::vector<std::size_t> by_est(block.comp.size());
  for (std::size_t k = 0; k < by_est.size(); ++k) by_est[k] = k;
  std::sort(by_est.begin(), by_est.end(), [&](std::size_t a, std::size_t b) {
    if (block.est[a] != block.est[b]) return block.est[a] < block.est[b];
    return a < b;  // deterministic order; the Theta sum is order-independent
  });
  block.comp_by_est.reserve(by_est.size());
  block.est_by_est.reserve(by_est.size());
  block.lct_by_est.reserve(by_est.size());
  block.preemptive_by_est.reserve(by_est.size());
  for (std::size_t k : by_est) {
    block.comp_by_est.push_back(block.comp[k]);
    block.est_by_est.push_back(block.est[k]);
    block.lct_by_est.push_back(block.lct[k]);
    block.preemptive_by_est.push_back(block.preemptive[k]);
  }
  block.sweep = block.total_demand != std::numeric_limits<Time>::max();
  const auto index_of = [&](Time t) {
    return static_cast<std::size_t>(
        std::lower_bound(block.points.begin(), block.points.end(), t) - block.points.begin());
  };
  for (std::size_t i = 0; i < by_est.size(); ++i) {
    const __int128 slack_start =
        static_cast<__int128>(block.lct_by_est[i]) - block.comp_by_est[i];
    block.k_est.push_back(index_of(block.est_by_est[i]));
    block.k_lct.push_back(index_of(block.lct_by_est[i]));
    block.k_slack.push_back(static_cast<std::size_t>(
        std::upper_bound(block.points.begin(), block.points.end(), slack_start,
                         [](__int128 v, Time p) { return v < p; }) -
        block.points.begin()));
    if (block.comp_by_est[i] > 0 && block.k_slack[i] <= block.k_est[i]) {
      block.narrow.push_back(i);
    }
    block.sweep = block.sweep && block.comp_by_est[i] >= 0;
  }
  if (!pruning) return;
  block.probe = probe_block(block);
  const std::size_t n = block.points.size();
  block.probe_cut.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    block.probe_cut[l] = row_cut(block, l, l + 1, n, block.probe.peak);
  }
}

/// Build the scan units of `block` (index `block_index` in the driver's
/// block list) and append them to `units`.
///
/// Without pruning, rows are grouped by nominal pair count. With pruning the
/// nominal count is the wrong currency: the floor check in scan_unit breaks
/// out of row l at the first k whose best-possible density
/// Ratio{total_demand, points[k] - points[l]} cannot strictly beat the probe
/// floor, and since the width grows monotonically along the row, the pairs
/// that survive the probe floor form a prefix whose end prepare_scan has
/// already found (BlockScan::probe_cut). Pruned rows are therefore grouped
/// by SURVIVING pair count (the unit's own incumbent can only break earlier,
/// so this is a true upper bound on the unit's Theta evaluations), which
/// spreads the post-pruning work evenly across units where nominal grouping
/// collapsed it into one or two. Rows with zero survivors still join a
/// unit -- they cost one probe_cut lookup each.
///
/// The grouping depends only on the block geometry and the (deterministic)
/// probe, never on the thread count, so the unit list -- and therefore the
/// reduced result -- is identical between serial and parallel execution.
/// With an empty probe (Ratio 0/1) every positive-demand pair "survives"
/// and the grouping quietly degenerates to nominal.
void plan_block_units(const BlockScan& block, std::size_t block_index, bool pruning,
                      std::vector<ScanUnit>& units) {
  const std::size_t n = block.points.size();
  const auto surviving_pairs = [&](std::size_t l) -> std::uint64_t {
    return static_cast<std::uint64_t>((pruning ? block.probe_cut[l] : n) - (l + 1));
  };
  const std::uint64_t grain = pruning ? kSurvivingPairsPerUnit : kPairsPerUnit;
  std::size_t l = 0;
  while (l + 1 < n) {
    std::uint64_t pairs = 0;
    const std::size_t begin = l;
    while (l + 1 < n && pairs < grain) {
      pairs += surviving_pairs(l);
      ++l;
    }
    units.push_back({block_index, begin, l});
  }
}

/// Scan the rows of one unit with a fresh incumbent.
///
/// With pruning, Theta <= total_demand and the width only grows along a
/// row, so once a pair's best-possible density cannot strictly beat the
/// prune floor, neither it nor the rest of the row can change the result.
/// The floor is the better of the unit's own incumbent and the block probe
/// -- a pair that only TIES the floor is skippable because a witness at that
/// density is already recorded (by the probe or by this unit). A row
/// therefore ends at its probe cut, re-cut by binary search whenever the
/// incumbent rises above the probe peak; that is exactly where a per-pair
/// floor test would break, so intervals_evaluated counts the same pairs.
UnitResult scan_unit(const BlockScan& block, const ScanUnit& unit, bool prune) {
  UnitResult res;
  RowSweep sweep;
  const bool use_sweep = block.sweep;
  const Ratio& probe = block.probe.peak;
  for (std::size_t l = unit.l_begin; l < unit.l_end; ++l) {
    const Time t1 = block.points[l];
    std::size_t end = prune ? block.probe_cut[l] : block.points.size();
    if (prune && res.peak > probe) end = row_cut(block, l, l + 1, end, res.peak);
    if (end == l + 1) continue;
    if (use_sweep) sweep.row(block, t1, l + 1, end);
    for (std::size_t k = l + 1; k < end; ++k) {
      const Time t2 = block.points[k];
      const Time theta = use_sweep ? sweep.next(t2) : demand_flat(block, t1, t2);
      ++res.evaluated;
      if (Ratio{theta, t2 - t1} > res.peak) {
        res.peak = Ratio{theta, t2 - t1};
        res.witness_t1 = t1;
        res.witness_t2 = t2;
        res.witness_demand = theta;
        res.has_witness = true;
        if (prune && res.peak > probe) end = row_cut(block, l, k + 1, end, res.peak);
      }
    }
  }
  return res;
}

/// Reduce one row's blocks in a fixed deterministic order -- every block's
/// probe first (in block order), then every block's folded scan (in block
/// order): peak = max, witness = the first result that attains the peak,
/// work = sum. fold_unit preserves first-attainment, so this equals a flat
/// unit-order merge bit for bit, and a tie across blocks keeps a witness
/// whose density EQUALS the reported peak -- never a stale witness from a
/// lower-density block. With pruning off every probe is empty.
ResourceBound merge_blocks(const Application& app, const TaskWindows& windows,
                           std::span<const BlockScan> blocks) {
  UnitResult acc;
  const BlockScan* winner_block = nullptr;
  auto absorb = [&](const UnitResult& r, const BlockScan& block) {
    if (r.has_witness && r.peak > acc.peak) winner_block = &block;
    fold_unit(acc, r);
  };
  for (const BlockScan& block : blocks) absorb(block.probe, block);
  for (const BlockScan& block : blocks) absorb(block.scan, block);

  ResourceBound out;
  out.peak_density = acc.peak;
  out.witness_t1 = acc.witness_t1;
  out.witness_t2 = acc.witness_t2;
  out.witness_demand = acc.witness_demand;
  out.intervals_evaluated = acc.evaluated;
  out.bound = acc.peak.ceil();
#ifndef NDEBUG
  if (winner_block != nullptr) {
    const Time check =
        demand(app, windows, winner_block->tasks, out.witness_t1, out.witness_t2);
    RTLB_CHECK(check == out.witness_demand, "witness demand inconsistent with its interval");
    RTLB_CHECK((Ratio{check, out.witness_t2 - out.witness_t1} == out.peak_density),
               "witness density disagrees with peak_density");
  }
#else
  (void)winner_block;
  (void)app;
  (void)windows;
#endif
  return out;
}

/// The cache key of a block: its exact geometry, never task identity.
BlockScanCache::Key block_key(const Application& app, const TaskWindows& windows,
                              std::span<const TaskId> tasks, bool pruning) {
  BlockScanCache::Key key;
  key.reserve(2 + 4 * tasks.size());
  key.push_back(pruning ? 1 : 0);
  key.push_back(static_cast<std::int64_t>(tasks.size()));
  for (TaskId t : tasks) {
    key.push_back(windows.est[t]);
    key.push_back(windows.lct[t]);
    key.push_back(app.task(t).comp);
    key.push_back(app.task(t).preemptive ? 1 : 0);
  }
  return key;
}

/// The one driver behind every bound query: one result row per entry of
/// `rows`, each the fold of that entry's blocks (Theorem 5).
///
/// With a cache, every block is looked up first; a hit replays its stored
/// probe and folded scan and is never prepared. The remaining blocks are
/// prepared and split into scan units, the units of ALL rows run through
/// one fan-out (so a row with one big block does not serialize the rest),
/// each block folds its units in unit order, the misses are stored, and
/// merge_blocks reduces each row. Every unit writes its own slot, so the
/// thread count never changes the result. Without a cache no key is built.
std::vector<ResourceBound> scan_rows(const Application& app, const TaskWindows& windows,
                                     std::span<const ResourcePartition> rows,
                                     const LowerBoundOptions& opts, BlockScanCache* cache) {
  const bool pruning = opts.enable_pruning;
  std::size_t num_blocks = 0;
  for (const ResourcePartition& row : rows) num_blocks += row.blocks.size();
  std::vector<BlockScan> blocks;
  blocks.reserve(num_blocks);
  std::vector<std::size_t> row_begin;  // first block of each row, then the end
  row_begin.reserve(rows.size() + 1);
  for (const ResourcePartition& row : rows) {
    row_begin.push_back(blocks.size());
    for (const PartitionBlock& block : row.blocks) blocks.emplace_back().tasks = block.tasks;
  }
  row_begin.push_back(blocks.size());

  std::vector<std::pair<std::size_t, BlockScanCache::Key>> misses;
  std::vector<ScanUnit> units;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    BlockScan& block = blocks[b];
    if (cache != nullptr) {
      BlockScanCache::Key key = block_key(app, windows, block.tasks, pruning);
      if (const BlockScanCache::Entry* hit = cache->lookup(key)) {
        block.probe = hit->probe;
        block.scan = hit->scan;
        continue;
      }
      misses.emplace_back(b, std::move(key));
    }
    prepare_scan(block, app, windows, pruning);
    plan_block_units(block, b, pruning, units);
  }

  std::vector<UnitResult> results(units.size());
  auto run_one = [&](std::size_t i) {
    results[i] = scan_unit(blocks[units[i].block], units[i], pruning);
  };
  const unsigned workers =
      opts.num_threads == 1 ? 1 : ThreadPool::resolve_threads(opts.num_threads);
  if (workers <= 1 || units.size() <= 1) {
    for (std::size_t i = 0; i < units.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(workers, units.size())));
    pool.parallel_for(units.size(), run_one);
  }
  // Units are grouped by block in block order, so this folds each block's
  // units in unit order.
  for (std::size_t i = 0; i < units.size(); ++i) fold_unit(blocks[units[i].block].scan, results[i]);

  for (auto& [b, key] : misses) cache->store(std::move(key), {blocks[b].probe, blocks[b].scan});

  std::vector<ResourceBound> out;
  out.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::span<const BlockScan> row_blocks(blocks.data() + row_begin[r],
                                                row_begin[r + 1] - row_begin[r]);
    ResourceBound bound = merge_blocks(app, windows, row_blocks);
    bound.resource = rows[r].resource;
    out.push_back(bound);
  }
  return out;
}

/// What the engine scans for resource r: its Figure-4 partition, or with
/// use_partitioning off the whole of ST_r as one block.
ResourcePartition blocks_for(const Application& app, const TaskWindows& windows, ResourceId r,
                             const LowerBoundOptions& opts) {
  if (opts.use_partitioning) return partition_tasks(app, windows, r);
  ResourcePartition whole{r, {}};
  std::vector<TaskId> st = app.tasks_using(r);
  // The engine reads a block's tasks only, so start/finish stay unset.
  if (!st.empty()) whole.blocks.push_back({std::move(st), 0, 0});
  return whole;
}

}  // namespace

const BlockScanCache::Entry* BlockScanCache::lookup(const Key& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void BlockScanCache::store(Key key, Entry entry) {
  // The occasional wholesale clear (safety valve against unbounded growth)
  // only costs future hits: callers copy a hit's values out before storing.
  if (map_.size() >= kMaxEntries) map_.clear();
  map_.emplace(std::move(key), entry);
}

ResourceBound resource_lower_bound(const Application& app, const TaskWindows& windows,
                                   ResourceId r, const LowerBoundOptions& opts) {
  const ResourcePartition row = blocks_for(app, windows, r, opts);
  return scan_rows(app, windows, {&row, 1}, opts, nullptr).front();
}

ResourceBound density_bound_over(const Application& app, const TaskWindows& windows,
                                 std::vector<TaskId> tasks, const LowerBoundOptions& opts) {
  const ResourcePartition row{kInvalidResource, partition_blocks(windows, std::move(tasks))};
  return scan_rows(app, windows, {&row, 1}, opts, nullptr).front();
}

std::vector<ResourceBound> all_resource_bounds(const Application& app,
                                               const TaskWindows& windows,
                                               const LowerBoundOptions& opts) {
  return all_resource_bounds(app, windows, partition_all(app, windows), opts);
}

std::vector<ResourceBound> all_resource_bounds(const Application& app,
                                               const TaskWindows& windows,
                                               const std::vector<ResourcePartition>& partitions,
                                               const LowerBoundOptions& opts,
                                               BlockScanCache* cache) {
  if (opts.use_partitioning) return scan_rows(app, windows, partitions, opts, cache);
  std::vector<ResourcePartition> rows;
  for (const ResourcePartition& p : partitions) {
    rows.push_back(blocks_for(app, windows, p.resource, opts));
  }
  return scan_rows(app, windows, rows, opts, cache);
}

std::vector<std::pair<Time, Time>> row_demand(const Application& app,
                                              const TaskWindows& windows,
                                              std::vector<TaskId> tasks, Time t1) {
  std::vector<std::pair<Time, Time>> out;
  if (tasks.empty()) return out;
  BlockScan block;
  block.tasks = tasks;
  prepare_scan(block, app, windows, /*pruning=*/false);
  const std::size_t first = static_cast<std::size_t>(
      std::upper_bound(block.points.begin(), block.points.end(), t1) - block.points.begin());
  const std::size_t end = block.points.size();
  if (first == end) return out;
  RowSweep sweep;
  if (block.sweep) sweep.row(block, t1, first, end);
  for (std::size_t k = first; k < end; ++k) {
    const Time t2 = block.points[k];
    out.emplace_back(t2, block.sweep ? sweep.next(t2) : demand_flat(block, t1, t2));
  }
  return out;
}

}  // namespace rtlb
