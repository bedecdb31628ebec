// Interval abstract interpretation over the pipeline's arithmetic (layer 1
// of the semantic lint engine).
//
// The analysis engine evaluates the paper's recurrences in 64-bit ticks:
// EST/LCT chain sums along DAG paths (Figs. 2-3), per-resource demand sums
// (Theta), and the Eq. 7.1/7.2 cost accumulations. abstract_interpret()
// re-evaluates the same expressions in an interval domain over I128: every
// derived quantity is bracketed by a [lo, hi] pair that is sound for EVERY
// merge decision an oracle could take, so the linter can either prove that
// no window can leave the safe Time range [-kSafeTime, kSafeTime]
// (src/common/types.hpp), or pinpoint a concrete chain that must overflow.
// It upgrades the E301/W302 spot checks from "this input looks big" to a
// per-path proof. It is a diagnostic, not a gate: compute_windows() itself
// refuses (RTLB-E310) any window outside the safe range, and the
// interpretation's job is to name the witness chain of that refusal.
//
// Domain. For task i with predecessors P (edge messages m_ji, computation
// times C_j > 0 on a structurally clean model):
//
//   est_lo[i] = max(rel_i, max_{j in P} (est_lo[j] + C_j + min(0, m_ji)))
//   est_hi[i] = max(rel_i, max_{j in P} est_hi[j]
//                          + sum_{j in P} C_j + max(0, max_{j in P} m_ji))
//
// The lo recurrence is a plain chain sum (every feasible value of E_i is at
// least each predecessor's completion, message paid or not), so it names a
// concrete witness path. The hi recurrence dominates both the unmerged term
// (est_j + C_j + m_ji) and every merged packing: ect() of any merged subset
// is at most the subset's worst EST plus the sum of its computation times,
// which the full-predecessor sum bounds from above. The LCT side mirrors
// this through the deadline. Intervals widen (never narrow), all I128
// arithmetic saturates at kAbsIntSaturation, and the verdict is three-valued:
//
//   kProvedSafe    every endpoint within [-kSafeTime, kSafeTime] -- the
//                  engine's windows are provably in range
//   kMayOverflow   some endpoint escapes the safe envelope but no value is
//                  forced out of int64 (RTLB-W311); whether the engine's
//                  actual windows stay in range is the engine's call
//   kMustOverflow  some est_lo/lct_hi is outside int64 for every merge
//                  decision: the engine WILL refuse the windows (RTLB-E310,
//                  with the witness chain)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/lint/linter.hpp"
#include "src/model/application.hpp"
#include "src/model/platform.hpp"

namespace rtlb {

/// One I128 interval, lo <= hi.
struct AbsInterval {
  __int128 lo = 0;
  __int128 hi = 0;
};

enum class AbsVerdict {
  kProvedSafe = 0,
  kMayOverflow,
  kMustOverflow,
};

/// Saturation bound for the interval arithmetic itself (I128 products of
/// catalog costs and demand sums can exceed even I128).
inline constexpr __int128 kAbsIntSaturation = (static_cast<__int128>(1) << 120);

/// Saturating I128 helpers, clamped to [-kAbsIntSaturation, kAbsIntSaturation].
__int128 abs_sat_add(__int128 a, __int128 b);
__int128 abs_sat_mul(__int128 a, __int128 b);

/// Decimal rendering (std::to_string has no __int128 overload).
std::string i128_str(__int128 v);

struct AbsIntResult {
  std::vector<AbsInterval> est;  ///< E_i envelope over all merge decisions
  std::vector<AbsInterval> lct;  ///< L_i envelope over all merge decisions

  /// Exact per-resource Theta ceiling (sum of computation times of ST_r),
  /// indexed like Application::resource_set().
  std::vector<ResourceId> resources;
  std::vector<__int128> demand;

  /// Eq. 7.1 accumulation envelope: sum_r |cost_r| * demand_r.
  __int128 shared_cost_hi = 0;
  /// Eq. 7.2 accumulation envelope: sum_n |cost_n| * num_tasks (each node
  /// count in any useful ILP solution is bounded by the task count). 0
  /// without a platform.
  __int128 dedicated_cost_hi = 0;

  AbsVerdict verdict = AbsVerdict::kProvedSafe;
  bool cost_may_overflow = false;  ///< some cost envelope exceeds int64

  /// Pinpointing: the first (topological) task whose envelope violates the
  /// verdict's threshold, which side, the offending value, and -- for
  /// kMustOverflow -- the witness chain of the lo-side sum, source-first.
  TaskId worst_task = kInvalidTask;
  bool worst_is_est = true;
  __int128 worst_value = 0;
  std::vector<TaskId> worst_chain;

  /// No library caller: the engine guards its own range. Kept for the
  /// benchmark's lint replay (perfbench/replay.cpp), its last user.
  bool windows_safe() const { return verdict == AbsVerdict::kProvedSafe; }
};

/// Run the interpretation. Requires a structurally clean model (valid ids,
/// acyclic DAG, positive computation times) -- the lint driver only calls it
/// after the structural pass found no errors.
AbsIntResult abstract_interpret(const Application& app,
                                const DedicatedPlatform* platform = nullptr);

/// RTLB-E310/W311/W312: report the interpretation's verdict (ctx.absint;
/// the pass is silent when the driver did not attach one).
void absint_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

}  // namespace rtlb
