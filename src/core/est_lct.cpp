#include "src/core/est_lct.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace rtlb {

Time latest_start_of_set(const Application& app, const std::vector<Time>& lct,
                         std::span<const TaskId> tasks) {
  RTLB_CHECK(!tasks.empty(), "lst of empty set");
  // Schedule in non-increasing LCT order, each task completing as late as its
  // own LCT and the start of the previously placed task allow.
  std::vector<TaskId> order(tasks.begin(), tasks.end());
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (lct[a] != lct[b]) return lct[a] > lct[b];
    return a < b;
  });
  Time start = lct[order[0]] - app.task(order[0]).comp;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const Time completion = std::min(start, lct[order[k]]);
    start = completion - app.task(order[k]).comp;
  }
  return start;
}

Time earliest_completion_of_set(const Application& app, const std::vector<Time>& est,
                                std::span<const TaskId> tasks) {
  RTLB_CHECK(!tasks.empty(), "ect of empty set");
  // Mirror of lst: non-decreasing EST order, each task starting as early as
  // its own EST and the completion of the previously placed task allow.
  std::vector<TaskId> order(tasks.begin(), tasks.end());
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (est[a] != est[b]) return est[a] < est[b];
    return a < b;
  });
  Time completion = est[order[0]] + app.task(order[0]).comp;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const Time start = std::max(completion, est[order[k]]);
    completion = start + app.task(order[k]).comp;
  }
  return completion;
}

namespace {

/// Read-only SoA snapshot of the scalar task attributes the recurrences
/// read, as contiguous arrays (a Task is a wide struct -- name, resource
/// vector -- so walking Task objects in the merge loop thrashes cache lines
/// for three ints). Edge messages need no copy: the Application already
/// stores them aligned with the adjacency lists.
struct FlatModel {
  std::vector<Time> comp, release, deadline;
};

FlatModel flatten(const Application& app) {
  FlatModel m;
  for (const Task& t : app.tasks()) {
    m.comp.push_back(t.comp);
    m.release.push_back(t.release);
    m.deadline.push_back(t.deadline);
  }
  return m;
}

/// Checked steps of the recurrences: on int64 overflow the result saturates
/// at the int64 extreme the exact value lies beyond and `overflow` is set,
/// so the task's step stays defined and the task is refused after it.
Time checked_add(Time a, Time b, bool& overflow) {
  Time r;
  if (!__builtin_add_overflow(a, b, &r)) return r;
  overflow = true;
  return b > 0 ? std::numeric_limits<Time>::max() : std::numeric_limits<Time>::min();
}

Time checked_sub(Time a, Time b, bool& overflow) {
  Time r;
  if (!__builtin_sub_overflow(a, b, &r)) return r;
  overflow = true;
  return b > 0 ? std::numeric_limits<Time>::min() : std::numeric_limits<Time>::max();
}

bool in_safe_range(Time t) { return t >= -kSafeTime && t <= kSafeTime; }

/// A merge candidate: its lms/emr term and the task, in the sort key order
/// of Figures 2/3 ((key, id) -- the id tie-break keeps every downstream
/// value, merge set, and certificate byte-identical on duplicate keys).
struct Candidate {
  Time key;
  TaskId id;
};

/// The sweep's arena: every container the merge search touches, reused across
/// tasks (and across candidate sets within a task), so the steady state
/// allocates nothing.
struct SweepScratch {
  std::vector<Candidate> cand;  ///< MS_i / MP_i in sort order
  std::vector<Time> suffix;     ///< suffix min/max of cand keys
  std::vector<TaskId> order;    ///< group in MERGE order (the reported set)
  std::vector<TaskId> packed;   ///< group in PACKING order
  std::vector<Time> packval;    ///< packed-prefix folds (lst/ect prefixes)
  std::unique_ptr<MergeOracle::Cursor> cursor;
};

/// Figure 2 for one task (successor LCTs already final). The candidate set
/// grows by one task per step, so the lst(G) packing is maintained
/// incrementally: splice the new task into the kept (lct desc, id asc)
/// order and refold the prefix values from the splice point only. Returns
/// whether L_i is in the safe range (and every term on the way was exact).
/// Both figures stay out of line: inlined into their one call site, the
/// sweep ran about 10 % slower on shared-model windows (GCC -O3).
[[gnu::noinline]]
bool lct_one_task(const Application& app, const FlatModel& m, TaskId i, SweepScratch& s,
                  std::vector<Time>& lct, std::vector<std::vector<TaskId>>& merged_succ) {
  const auto& succ = app.successors(i);
  const auto msg = app.successor_messages(i);
  if (succ.empty()) {  // step 1
    lct[i] = m.deadline[i];
    return in_safe_range(lct[i]);
  }
  bool overflow = false;

  // Step 2: split Succ_i into MS_i (pairwise mergeable, with lms evaluated
  // exactly once) and the rest, whose lms terms bind L unconditionally.
  s.cand.clear();
  Time l0 = m.deadline[i];
  for (std::size_t k = 0; k < succ.size(); ++k) {
    const TaskId j = succ[k];
    const Time lms = checked_sub(checked_sub(lct[j], m.comp[j], overflow), msg[k], overflow);
    s.cursor->reset(i);
    if (s.cursor->try_add(j)) {
      s.cand.push_back({lms, j});
    } else {
      l0 = std::min(l0, lms);
    }
  }
  std::sort(s.cand.begin(), s.cand.end(), [](const Candidate& a, const Candidate& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  });

  // suffix[k] = min lms over candidates k.. -- the "not yet merged
  // candidates still need their message" term of step (c), precomputed once
  // instead of rescanned per step.
  const std::size_t d = s.cand.size();
  s.suffix.resize(d + 1);
  s.suffix[d] = std::numeric_limits<Time>::max();
  for (std::size_t k = d; k-- > 0;) {
    s.suffix[k] = std::min(s.suffix[k + 1], s.cand[k].key);
  }

  // L_i^0 = lct_i(empty set): with nothing merged, i must message EVERY
  // successor, mergeable or not (see the reference implementation's note on
  // the Section 8 walkthrough).
  Time best = l0;
  if (d > 0) best = std::min(best, s.cand.front().key);
  // Step 3, with the tie correction of the reference implementation: only a
  // strict drop of L^k (necessarily from the monotone lst term) is final;
  // ties must keep merging so a whole lms tie group can be absorbed.
  s.cursor->reset(i);
  s.order.clear();
  s.packed.clear();
  s.packval.clear();
  std::size_t improved_prefix = 0;  // reported G_i: last strictly-improving prefix
  for (std::size_t k = 0; k < d; ++k) {
    const TaskId t = s.cand[k].id;          // (a): least lms among MS - G
    if (!s.cursor->try_add(t)) break;       // (b)
    s.order.push_back(t);
    // (c): splice t into the packing order and refold the affected suffix.
    const auto before = [&](TaskId a, TaskId b) {
      if (lct[a] != lct[b]) return lct[a] > lct[b];
      return a < b;
    };
    const auto pos_it = std::lower_bound(s.packed.begin(), s.packed.end(), t, before);
    const std::size_t pos = static_cast<std::size_t>(pos_it - s.packed.begin());
    s.packed.insert(pos_it, t);
    s.packval.resize(s.packed.size());
    for (std::size_t q = pos; q < s.packed.size(); ++q) {
      const TaskId x = s.packed[q];
      s.packval[q] = checked_sub(q == 0 ? lct[x] : std::min(s.packval[q - 1], lct[x]),
                                 m.comp[x], overflow);
    }
    const Time lk = std::min({l0, s.packval.back(), s.suffix[k + 1]});
    if (lk < best) break;  // (d): strict drop is final
    if (lk > best) {
      best = lk;
      improved_prefix = s.order.size();
    }
  }
  lct[i] = best;  // step 4
  merged_succ[i].assign(s.order.begin(),
                        s.order.begin() + static_cast<std::ptrdiff_t>(improved_prefix));
  return !overflow && in_safe_range(best);
}

/// Figure 3 for one task (predecessor ESTs already final); exact mirror.
[[gnu::noinline]]
bool est_one_task(const Application& app, const FlatModel& m, TaskId i, SweepScratch& s,
                  std::vector<Time>& est, std::vector<std::vector<TaskId>>& merged_pred) {
  const auto& pred = app.predecessors(i);
  const auto msg = app.predecessor_messages(i);
  if (pred.empty()) {  // step 1
    est[i] = m.release[i];
    return in_safe_range(est[i]);
  }
  bool overflow = false;

  s.cand.clear();
  Time e0 = m.release[i];  // step 2
  for (std::size_t k = 0; k < pred.size(); ++k) {
    const TaskId j = pred[k];
    const Time emr = checked_add(checked_add(est[j], m.comp[j], overflow), msg[k], overflow);
    s.cursor->reset(i);
    if (s.cursor->try_add(j)) {
      s.cand.push_back({emr, j});
    } else {
      e0 = std::max(e0, emr);
    }
  }
  std::sort(s.cand.begin(), s.cand.end(), [](const Candidate& a, const Candidate& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.id < b.id;
  });

  const std::size_t d = s.cand.size();
  s.suffix.resize(d + 1);
  s.suffix[d] = std::numeric_limits<Time>::lowest();
  for (std::size_t k = d; k-- > 0;) {
    s.suffix[k] = std::max(s.suffix[k + 1], s.cand[k].key);
  }

  Time best = e0;
  if (d > 0) best = std::max(best, s.cand.front().key);
  s.cursor->reset(i);
  s.order.clear();
  s.packed.clear();
  s.packval.clear();
  std::size_t improved_prefix = 0;
  for (std::size_t k = 0; k < d; ++k) {  // step 3
    const TaskId t = s.cand[k].id;       // (a): greatest emr among MP - M
    if (!s.cursor->try_add(t)) break;    // (b)
    s.order.push_back(t);
    // (c): splice into (est asc, id asc) order, refold ect prefixes.
    const auto before = [&](TaskId a, TaskId b) {
      if (est[a] != est[b]) return est[a] < est[b];
      return a < b;
    };
    const auto pos_it = std::lower_bound(s.packed.begin(), s.packed.end(), t, before);
    const std::size_t pos = static_cast<std::size_t>(pos_it - s.packed.begin());
    s.packed.insert(pos_it, t);
    s.packval.resize(s.packed.size());
    for (std::size_t q = pos; q < s.packed.size(); ++q) {
      const TaskId x = s.packed[q];
      s.packval[q] = checked_add(q == 0 ? est[x] : std::max(s.packval[q - 1], est[x]),
                                 m.comp[x], overflow);
    }
    const Time ek = std::max({e0, s.packval.back(), s.suffix[k + 1]});
    if (ek > best) break;  // (d): strict rise is final
    if (ek < best) {
      best = ek;
      improved_prefix = s.order.size();
    }
  }
  est[i] = best;  // step 4
  merged_pred[i].assign(s.order.begin(),
                        s.order.begin() + static_cast<std::ptrdiff_t>(improved_prefix));
  return !overflow && in_safe_range(best);
}

ModelError window_out_of_range(const Application& app, TaskId i, const char* side) {
  return ModelError("RTLB-E310: " + std::string(side) + " of task '" + app.task(i).name +
                    "' leaves the safe Time range [-" + std::to_string(kSafeTime) + ", " +
                    std::to_string(kSafeTime) + "]");
}

TaskWindows compute_windows_impl(const Application& app, const MergeOracle& oracle,
                                 std::span<const TaskId> topo) {
  const std::size_t n = app.num_tasks();
  TaskWindows w;
  w.est.assign(n, 0);
  w.lct.assign(n, 0);
  w.merged_pred.resize(n);
  w.merged_succ.resize(n);

  RTLB_CHECK(topo.size() == n, "compute_windows: order is not a permutation");
  const FlatModel m = flatten(app);
  SweepScratch scratch;
  scratch.cursor = oracle.cursor(app);
  // The first out-of-range task in sweep order -- EST side topologically,
  // then LCT side in reverse -- ends the sweep.
  for (TaskId i : topo) {
    if (!est_one_task(app, m, i, scratch, w.est, w.merged_pred)) {
      throw window_out_of_range(app, i, "EST");
    }
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if (!lct_one_task(app, m, *it, scratch, w.lct, w.merged_succ)) {
      throw window_out_of_range(app, *it, "LCT");
    }
  }
  return w;
}

/// RTLB_WINDOWS_REFERENCE: compile-time option (CMake) or environment
/// variable; either cross-checks every compute_windows() call against the
/// reference implementation. Same switch idiom as RTLB_SESSION_VERIFY.
bool reference_check_enabled() {
#ifdef RTLB_WINDOWS_REFERENCE
  return true;
#else
  static const bool enabled = [] {
    const char* env = std::getenv("RTLB_WINDOWS_REFERENCE");
    return env != nullptr && *env != '\0' && std::string_view(env) != "0";
  }();
  return enabled;
#endif
}

/// The order the two order-free overloads sweep in.
std::vector<TaskId> topological_order_of(const Application& app) {
  std::optional<std::vector<TaskId>> topo = app.dag().topological_order();
  if (!topo) throw ModelError("compute_windows: precedence graph has a cycle");
  return std::move(*topo);
}

}  // namespace

TaskWindows compute_windows(const Application& app, const MergeOracle& oracle,
                            std::span<const TaskId> order) {
  TaskWindows w = compute_windows_impl(app, oracle, order);
  if (reference_check_enabled()) {
    RTLB_CHECK(w == compute_windows_reference(app, oracle),
               "compute_windows diverged from the reference implementation");
  }
  return w;
}

TaskWindows compute_windows(const Application& app, const DedicatedPlatform* platform,
                            std::span<const TaskId> order) {
  if (platform != nullptr) {
    return compute_windows(app, DedicatedMergeOracle(*platform), order);
  }
  return compute_windows(app, SharedMergeOracle(), order);
}

TaskWindows compute_windows(const Application& app, const MergeOracle& oracle, int) {
  return compute_windows(app, oracle, topological_order_of(app));
}

TaskWindows compute_windows(const Application& app, const DedicatedPlatform* platform) {
  return compute_windows(app, platform, topological_order_of(app));
}

}  // namespace rtlb
