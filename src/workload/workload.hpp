// Lowering recurrent workloads into the flat Application the Section 3-7
// machinery accepts (the algorithm HALF of the workload front door; the
// declaration types live in src/model/recurrent.hpp).
//
// The paper analyzes a single activation of the task graph; real-time
// control software is periodic or sporadic. This module lowers a Workload
// -- periodic transactions and sporadic DAGs -- over one shared hyperperiod
// into a plain Application:
//
//   * periodic: one instance per period slot over [0, H), H = lcm of the
//     periodic periods (overflow-CHECKED on Time: a co-prime pair of large
//     periods saturates and reports instead of silently wrapping);
//   * sporadic: the densest legal release sequence -- activations every
//     minimum-inter-arrival tick -- over the transaction's horizon (or the
//     periodic hyperperiod when no horizon is declared). Denser releases
//     only add demand, so the lowered instance is the worst case for every
//     lower bound in this repository: a resource/cost bound proved on it
//     holds for every legal sporadic arrival sequence.
//
// Lowering is DETERMINISTIC: transactions in declaration order, activations
// in slot order, template tasks in template order, instance k of task `t`
// of transaction `tr` named "<tr>.<t>@<k>". Two lowerings of equal
// workloads are byte-identical (tests/test_periodic.cpp pins this), which
// is what lets warm sessions compare a re-lowered application against the
// current one and skip the pipeline on a no-op template delta.
//
// Because every instance's window lies inside its own activation slot, the
// lowered task set is exactly the phased shape Section 5's partitioning
// exploits: each busy slot becomes a partition block (see bench_workloads).
#pragma once

#include <string>
#include <vector>

#include "src/model/application.hpp"
#include "src/model/io.hpp"
#include "src/model/platform.hpp"
#include "src/model/recurrent.hpp"

namespace rtlb {

// Compatibility spellings from the original periodic.hpp API.
using PeriodicTask = TemplateTask;
using PeriodicEdge = TemplateEdge;

// Hyperperiod / checked_hyperperiod live in src/model/recurrent.hpp (the
// lint layer needs them too and may not depend on workload/); re-exported
// here via the include above.

/// lcm over the periodic transactions' periods; throws ModelError when the
/// lcm overflows Time (use checked_hyperperiod() to saturate instead).
Time hyperperiod(const std::vector<Transaction>& transactions);

struct LowerOptions {
  /// Chain successive activations of one transaction head-to-head with
  /// zero-size messages (activation k+1's sources depend on activation k's
  /// sinks -- the usual "no self-overrun" semantics).
  bool chain_instances = true;
  /// Run validate_workload() / Application::validate() around the lowering.
  /// The front door (gate_and_lower, src/core/pipeline.hpp) sets this false
  /// after its own template lint, so one bad template reports a batch of
  /// diagnostics instead of throwing out of the whole lowering.
  bool validate = true;
};

/// Validate a workload's templates: positive periods / inter-arrivals,
/// offsets within the period, constrained deadlines, windows that can hold
/// their tasks, acyclic templates, catalog-valid processor ids, bounded
/// sporadic horizons, and a representable hyperperiod. Throws ModelError on
/// the first violation. Delegates to the recurrent lint pass
/// (src/lint/recurrent.hpp) so this throwing path and the batching lint
/// gate can never drift apart.
void validate_workload(const ResourceCatalog& catalog, const Workload& workload);

/// Lower `workload` into a fresh flat Application (validates first).
Application lower_workload(const ResourceCatalog& catalog, const Workload& workload,
                           const LowerOptions& options = {});

/// Front door for parsed files: validate inst.workload and APPEND its
/// lowered instances to inst.app (no-op for flat instances). Lowered tasks
/// carry no SourceMap task lines -- fix-its stay anchored to the template
/// declarations, never to generated instances. Call after parse_instance()
/// and before analysis; tools go through gate_and_lower() instead, which
/// lowers only templates its lint passed.
void lower_instance(ProblemInstance& inst, const LowerOptions& options = {});

// -- Compatibility wrappers over the original periodic-only API. ----------

/// Unroll periodic transactions over [0, hyperperiod) into an Application.
Application unroll(const ResourceCatalog& catalog, const std::vector<Transaction>& transactions,
                   bool chain_instances = true);

/// validate_workload() over a plain transaction vector.
void validate_transactions(const ResourceCatalog& catalog,
                           const std::vector<Transaction>& transactions);

}  // namespace rtlb
