#include "src/model/recurrent.hpp"

#include <algorithm>
#include <numeric>

namespace rtlb {

Hyperperiod checked_hyperperiod(const std::vector<Transaction>& transactions) {
  Hyperperiod out;
  Time h = 1;
  for (const Transaction& tr : transactions) {
    if (tr.kind != ReleaseKind::kPeriodic) continue;
    if (tr.period <= 0) continue;  // reported by the lint pass (RTLB-E501)
    const Time g = std::gcd(h, tr.period);
    // lcm(h, p) = (h/g)*p can exceed Time for co-prime large periods;
    // widen through __int128 and saturate instead of silently wrapping.
    const __int128 wide = static_cast<__int128>(h / g) * tr.period;
    if (wide > static_cast<__int128>(kTimeMax)) {
      out.value = kTimeMax;
      out.overflow = true;
      return out;
    }
    h = static_cast<Time>(wide);
  }
  out.value = h;
  return out;
}

__int128 activation_count(const Transaction& tr, Time hyperperiod) {
  if (tr.period <= 0) return 0;
  const __int128 horizon =
      tr.kind == ReleaseKind::kSporadic && tr.horizon > 0 ? tr.horizon : hyperperiod;
  if (horizon <= tr.offset) return 0;
  return (horizon - tr.offset + tr.period - 1) / tr.period;
}

__int128 lowered_task_count(const std::vector<Transaction>& transactions, Time hyperperiod) {
  __int128 total = 0;
  for (const Transaction& tr : transactions) {
    total += activation_count(tr, hyperperiod) * static_cast<__int128>(tr.tasks.size());
  }
  return total;
}

__int128 lowered_edge_count(const Transaction& tr, Time hyperperiod, bool chain_instances) {
  const __int128 activations = activation_count(tr, hyperperiod);
  const __int128 template_edges = activations * static_cast<__int128>(tr.edges.size());
  if (activations == 0 || !chain_instances) return template_edges;
  std::vector<char> has_pred(tr.tasks.size(), 0), has_succ(tr.tasks.size(), 0);
  for (const TemplateEdge& e : tr.edges) {
    if (e.from >= tr.tasks.size() || e.to >= tr.tasks.size()) continue;  // RTLB-E507
    has_succ[e.from] = has_pred[e.to] = 1;
  }
  const __int128 sources = std::count(has_pred.begin(), has_pred.end(), 0);
  const __int128 sinks = std::count(has_succ.begin(), has_succ.end(), 0);
  return template_edges + (activations - 1) * sinks * sources;
}

}  // namespace rtlb
