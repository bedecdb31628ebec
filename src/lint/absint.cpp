#include "src/lint/absint.hpp"

#include <algorithm>
#include <cstdlib>

#include "src/lint/passes.hpp"

namespace rtlb {

__int128 abs_sat_add(__int128 a, __int128 b) {
  const __int128 sum = a + b;  // |a|,|b| <= 2^120, so the raw sum cannot wrap
  return std::clamp(sum, -kAbsIntSaturation, kAbsIntSaturation);
}

__int128 abs_sat_mul(__int128 a, __int128 b) {
  if (a == 0 || b == 0) return 0;
  const bool negative = (a < 0) != (b < 0);
  // Magnitudes; inputs are already clamped, so the division test is exact.
  const __int128 ma = a < 0 ? -a : a;
  const __int128 mb = b < 0 ? -b : b;
  if (ma > kAbsIntSaturation / mb) {
    return negative ? -kAbsIntSaturation : kAbsIntSaturation;
  }
  return negative ? -(ma * mb) : ma * mb;
}

std::string i128_str(__int128 v) {
  if (v == 0) return "0";
  const bool negative = v < 0;
  // Peel digits from the magnitude; -min is representable for our clamped
  // range (|v| <= 2^120).
  unsigned __int128 m = negative ? static_cast<unsigned __int128>(-v)
                                 : static_cast<unsigned __int128>(v);
  std::string digits;
  while (m != 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(m % 10)));
    m /= 10;
  }
  if (negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

namespace {

constexpr __int128 kInt64Max = static_cast<__int128>(INT64_MAX);
constexpr __int128 kInt64Min = static_cast<__int128>(INT64_MIN);

}  // namespace

AbsIntResult abstract_interpret(const Application& app, const DedicatedPlatform* platform) {
  const auto order = app.dag().topological_order();
  RTLB_CHECK(order.has_value(), "abstract_interpret requires an acyclic DAG");
  return abstract_interpret(app, platform, *order);
}

AbsIntResult abstract_interpret(const Application& app, const DedicatedPlatform* platform,
                                std::span<const TaskId> order) {
  const std::size_t n = app.num_tasks();
  RTLB_CHECK(order.size() == n, "abstract_interpret: order is not a permutation");
  AbsIntResult r;
  r.est.resize(n);
  r.lct.resize(n);

  // Witness parents of the chain-sum (lo-side EST, hi-side LCT) recurrences;
  // these are the sums the engine is FORCED to realize, so a violation along
  // them is a proof of overflow, not a possibility.
  std::vector<TaskId> est_lo_parent(n, kInvalidTask);
  std::vector<TaskId> lct_hi_parent(n, kInvalidTask);

  // EST sweep, topological order: predecessors are final when read.
  for (TaskId i : order) {
    const Task& t = app.task(i);
    AbsInterval v{static_cast<__int128>(t.release), static_cast<__int128>(t.release)};
    __int128 comp_sum = 0;
    __int128 max_pred_hi = -kAbsIntSaturation;
    __int128 max_msg = 0;
    const auto pred_msg = app.predecessor_messages(i);
    for (std::size_t k = 0; k < pred_msg.size(); ++k) {
      const TaskId j = app.predecessors(i)[k];
      const __int128 cj = static_cast<__int128>(app.task(j).comp);
      const __int128 m = static_cast<__int128>(pred_msg[k]);
      const __int128 lo_contrib =
          abs_sat_add(abs_sat_add(r.est[j].lo, cj), m < 0 ? m : 0);
      if (lo_contrib > v.lo) {
        v.lo = lo_contrib;
        est_lo_parent[i] = j;
      }
      comp_sum = abs_sat_add(comp_sum, cj);
      max_pred_hi = std::max(max_pred_hi, r.est[j].hi);
      max_msg = std::max(max_msg, m);
    }
    if (!app.predecessors(i).empty()) {
      v.hi = std::max(v.hi, abs_sat_add(abs_sat_add(max_pred_hi, comp_sum), max_msg));
    }
    r.est[i] = v;
  }

  // LCT sweep, reverse topological order: successors final when read.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId i = *it;
    const Task& t = app.task(i);
    AbsInterval v{static_cast<__int128>(t.deadline), static_cast<__int128>(t.deadline)};
    __int128 comp_sum = 0;
    __int128 min_succ_lo = kAbsIntSaturation;
    __int128 max_msg = 0;
    const auto succ_msg = app.successor_messages(i);
    for (std::size_t k = 0; k < succ_msg.size(); ++k) {
      const TaskId j = app.successors(i)[k];
      const __int128 cj = static_cast<__int128>(app.task(j).comp);
      const __int128 m = static_cast<__int128>(succ_msg[k]);
      const __int128 hi_contrib =
          abs_sat_add(abs_sat_add(r.lct[j].hi, -cj), m < 0 ? -m : 0);
      if (hi_contrib < v.hi) {
        v.hi = hi_contrib;
        lct_hi_parent[i] = j;
      }
      comp_sum = abs_sat_add(comp_sum, cj);
      min_succ_lo = std::min(min_succ_lo, r.lct[j].lo);
      max_msg = std::max(max_msg, m < 0 ? 0 : m);
    }
    if (!app.successors(i).empty()) {
      v.lo = std::min(v.lo, abs_sat_add(abs_sat_add(min_succ_lo, -comp_sum), -max_msg));
    }
    r.lct[i] = v;
  }

  // Verdict: the FIRST topological violation pins the report, must-overflow
  // outranking may-overflow. Only the chain-sum sides (est_lo, lct_hi) can
  // prove "must": they hold for every merge decision.
  for (TaskId i : order) {
    if (r.est[i].lo > kInt64Max &&
        (r.verdict != AbsVerdict::kMustOverflow)) {
      r.verdict = AbsVerdict::kMustOverflow;
      r.worst_task = i;
      r.worst_is_est = true;
      r.worst_value = r.est[i].lo;
      break;
    }
    if (r.lct[i].hi < kInt64Min && r.verdict != AbsVerdict::kMustOverflow) {
      r.verdict = AbsVerdict::kMustOverflow;
      r.worst_task = i;
      r.worst_is_est = false;
      r.worst_value = r.lct[i].hi;
      break;
    }
  }
  if (r.verdict != AbsVerdict::kMustOverflow) {
    for (TaskId i : order) {
      const bool est_bad = r.est[i].lo < -kSafeTime || r.est[i].hi > kSafeTime ||
                           r.est[i].lo > kSafeTime || r.est[i].hi < -kSafeTime;
      const bool lct_bad = r.lct[i].lo < -kSafeTime || r.lct[i].hi > kSafeTime;
      if (!est_bad && !lct_bad) continue;
      r.verdict = AbsVerdict::kMayOverflow;
      r.worst_task = i;
      r.worst_is_est = est_bad;
      r.worst_value = est_bad ? r.est[i].hi : r.lct[i].lo;
      break;
    }
  }
  if (r.verdict == AbsVerdict::kMustOverflow) {
    // Reconstruct the witness chain of the violated chain sum.
    std::vector<TaskId>& parents = r.worst_is_est ? est_lo_parent : lct_hi_parent;
    TaskId cur = r.worst_task;
    for (std::size_t guard = 0; guard <= n && cur != kInvalidTask; ++guard) {
      r.worst_chain.push_back(cur);
      cur = parents[cur];
    }
    if (r.worst_is_est) std::reverse(r.worst_chain.begin(), r.worst_chain.end());
  }

  // Demand and cost envelopes (exact sums; merging never changes Theta),
  // over RES: the non-empty ST_r, bucketed in one pass over the tasks.
  const std::vector<std::vector<TaskId>> st = app.tasks_by_resource();
  for (ResourceId res = 0; res < st.size(); ++res) {
    if (st[res].empty()) continue;
    __int128 sum = 0;
    for (TaskId i : st[res]) sum = abs_sat_add(sum, static_cast<__int128>(app.task(i).comp));
    r.resources.push_back(res);
    r.demand.push_back(sum);
    const __int128 cost = static_cast<__int128>(app.catalog().cost(res));
    r.shared_cost_hi =
        abs_sat_add(r.shared_cost_hi, abs_sat_mul(cost < 0 ? -cost : cost, sum));
  }
  if (platform != nullptr) {
    const __int128 tasks = static_cast<__int128>(n);
    for (const NodeType& node : platform->node_types()) {
      const __int128 cost = static_cast<__int128>(node.cost);
      r.dedicated_cost_hi = abs_sat_add(
          r.dedicated_cost_hi, abs_sat_mul(cost < 0 ? -cost : cost, tasks));
    }
  }
  r.cost_may_overflow = r.shared_cost_hi > kInt64Max || r.dedicated_cost_hi > kInt64Max;
  return r;
}

void absint_lint_pass(const LintContext& ctx, DiagnosticSink& sink) {
  const AbsIntResult* ai = ctx.absint;
  if (ai == nullptr) return;
  const Application& app = ctx.app;

  if (ai->verdict == AbsVerdict::kMustOverflow) {
    const char* side = ai->worst_is_est ? "EST" : "LCT";
    sink.emit(task_finding(
        ctx, sink, "RTLB-E310", ai->worst_task,
        std::string(side) + " chain sum reaches " + i128_str(ai->worst_value) +
            " for every merge decision (int64 holds " + std::to_string(INT64_MAX) +
            "); witness chain: " + chain_names(app, ai->worst_chain)));
  } else if (ai->verdict == AbsVerdict::kMayOverflow) {
    const char* side = ai->worst_is_est ? "EST" : "LCT";
    sink.emit(task_finding(
        ctx, sink, "RTLB-W311", ai->worst_task,
        std::string(side) + " envelope reaches " + i128_str(ai->worst_value) +
            ", beyond the provably exact range of " + i128_str(kSafeTime) + " ticks; " +
            (ctx.windows != nullptr
                 ? "the computed windows stay within it"
                 : "the computed windows leave it, so analysis refuses them (RTLB-E310)")));
  }

  if (ai->cost_may_overflow) {
    const bool shared = ai->shared_cost_hi > static_cast<__int128>(INT64_MAX);
    sink.emit(sink.make(
        "RTLB-W312", "",
        std::string(shared ? "Eq. 7.1 shared" : "Eq. 7.2 dedicated") +
            " cost accumulation envelope reaches " +
            i128_str(shared ? ai->shared_cost_hi : ai->dedicated_cost_hi) +
            " (int64 holds " + std::to_string(INT64_MAX) + ")"));
  }
}

}  // namespace rtlb
