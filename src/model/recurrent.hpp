// Recurrent workload declarations (the model-layer HALF of the workload
// front door; the lowering ALGORITHMS live in src/workload/workload.hpp).
//
// The paper analyzes a single activation of a task DAG; real-time software
// is recurrent. A Workload carries the recurrent template declarations --
// periodic transactions and sporadic DAGs -- exactly as written (or as
// built programmatically): no derived values, no validation. That makes the
// types safe for every layer that already depends on model/ (io parses into
// them, lint checks them, core lowers them via src/workload) without
// widening the layering DAG.
//
// A template task's scalars are all RELATIVE to the activation slot:
// `offset` within the slot, `relative_deadline` from the slot start (0 =
// "end of slot"). Lowering (src/workload/workload.hpp) turns instance k of
// transaction `tr` into the flat task "<tr.name>.<task.name>@<k>" with
// absolute release/deadline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/platform.hpp"

namespace rtlb {

/// How a transaction's activations recur.
enum class ReleaseKind {
  /// One activation every `period` ticks, starting at `offset`.
  kPeriodic,
  /// Activations at least `period` (= minimum inter-arrival) ticks apart;
  /// lowered as the densest legal release sequence over a bounded horizon,
  /// which is the worst case for every lower bound in this repository.
  kSporadic,
};

/// One task of a transaction template (vertex of the per-activation DAG).
struct TemplateTask {
  std::string name;  ///< instance k becomes "<transaction>.<name>@k"
  Time comp = 1;
  /// Release offset of this task within the activation slot (>= 0).
  Time offset = 0;
  /// Deadline relative to the slot start; 0 means "end of slot".
  Time relative_deadline = 0;
  ResourceId proc = kInvalidResource;
  std::vector<ResourceId> resources;
  bool preemptive = false;
  /// 1-based source line of the `ttask` directive; 0 = programmatic.
  int line = 0;
};

/// One precedence edge of a template (indices into Transaction::tasks).
struct TemplateEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  Time msg = 0;
  /// 1-based source line of the `tedge` directive; 0 = programmatic.
  int line = 0;
};

/// A recurrent transaction: a DAG template plus its release law. For
/// ReleaseKind::kPeriodic, `period` is the period; for kSporadic it is the
/// minimum inter-arrival time and `horizon` bounds the release sequence
/// (0 = borrow the periodic transactions' hyperperiod).
struct Transaction {
  std::string name;
  ReleaseKind kind = ReleaseKind::kPeriodic;
  Time period = 1;
  /// Release of activation 0 (must lie in [0, period)).
  Time offset = 0;
  /// Sporadic only: activations are generated while their release is
  /// strictly before the horizon. Ignored for periodic transactions.
  Time horizon = 0;
  std::vector<TemplateTask> tasks;
  std::vector<TemplateEdge> edges;
  /// 1-based source line of the `transaction`/`sporadic` directive.
  int line = 0;
};

/// The recurrent front door: a set of transactions, lowered together over
/// one shared hyperperiod. An empty workload is a flat instance.
struct Workload {
  std::vector<Transaction> transactions;

  bool empty() const { return transactions.empty(); }
};

/// checked_hyperperiod() outcome: the lcm of the periodic transactions'
/// periods, or kTimeMax with `overflow` set when the true lcm does not fit
/// in Time (reported by the recurrent lint pass as RTLB-E508).
struct Hyperperiod {
  Time value = 1;
  bool overflow = false;
};

/// Overflow-checked lcm over the PERIODIC transactions' periods (sporadic
/// transactions recur by minimum inter-arrival, not by period, and do not
/// participate). Non-positive periods are skipped -- reporting them is the
/// lint pass's job (RTLB-E501). Never throws; the multiply is widened
/// through __int128 and saturates to kTimeMax (the RTLB-A301 discipline).
Hyperperiod checked_hyperperiod(const std::vector<Transaction>& transactions);

/// Activations of `tr` that lowering unrolls: releases at offset + k*period
/// strictly before the transaction's horizon -- its own `horizon` for a
/// sporadic transaction that declares one, otherwise `hyperperiod`. Exact
/// in __int128 for any declared values; 0 for a non-positive period
/// (RTLB-E501) or a horizon at or before the offset.
__int128 activation_count(const Transaction& tr, Time hyperperiod);

/// The most tasks a workload may lower to. The recurrent lint pass refuses
/// more as RTLB-E509, before lowering allocates anything: the analysis
/// could not finish on such an instance, and a few extra digits in a period
/// would otherwise exhaust memory in the lowering itself.
inline constexpr std::int64_t kMaxLoweredTasks = std::int64_t{1} << 20;

/// Tasks the lowering creates: the sum over transactions of
/// activation_count() times the template size, exact in __int128.
__int128 lowered_task_count(const std::vector<Transaction>& transactions, Time hyperperiod);

/// The most precedence edges a workload may lower to, refused likewise as
/// RTLB-E509: chaining activations adds sinks x sources edges each, so a
/// wide template within the task budget can still lower to ~10^9 edges.
/// Sized by measurement (EXPERIMENTS.md, "Lowering budget"): a lowered edge
/// costs about 26 bytes, so a workload at both budgets lowers in about
/// 1.1 GiB, within a 2 GB address-space limit, and a dense template at the
/// task budget (a complete 64-task DAG over 16384 activations) fits.
inline constexpr std::int64_t kMaxLoweredEdges = std::int64_t{1} << 25;

/// Edges lowering `tr` creates: its template edges in every activation,
/// plus, when `chain_instances` (LowerOptions), sinks x sources chaining
/// edges between consecutive activations. Exact in __int128.
__int128 lowered_edge_count(const Transaction& tr, Time hyperperiod, bool chain_instances);

}  // namespace rtlb
