// Certificates: the analysis pipeline's results re-stated as checkable facts.
//
// Each of the four steps of Section 3 emits its side of the bargain:
//   step 1  window facts   — [E_i, L_i] plus the merge sets M_i / G_i the
//                            Figure 2/3 greedies committed to (Theorems 1/2),
//   step 2  partitions     — block membership plus the Theorem 5 separation
//                            witnesses (earlier blocks finish before later
//                            blocks may start),
//   step 3  bound witness  — the interval (t1, t2) whose Psi terms (Theorems
//                            3/4) sum to the demand that forces LB_r via
//                            Eq. 6.3,
//   step 4  cost facts     — the Eq. 7.1 weight sum, and for the dedicated
//                            model the primal assembly + LP dual vector
//                            certifying the Eq. 7.2 relaxation.
//
// A certificate carries VALUES, never code: src/verify/checker.hpp re-judges
// every fact against the theorem side-conditions using only the model
// (src/model), deliberately sharing nothing with the src/core producers. The
// JSON (de)serialization here is what tools/rtlb_check exchanges on disk.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/types.hpp"
#include "src/model/platform.hpp"

namespace rtlb {

/// Certificate JSON that cannot be understood at all (missing/ill-typed
/// fields, unknown version). Distinct from a WELL-FORMED certificate whose
/// facts are false — that is the checker's verdict, not a parse error.
class CertificateFormatError : public std::runtime_error {
 public:
  explicit CertificateFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Bumped when the JSON layout changes incompatibly.
inline constexpr int kCertificateVersion = 1;

/// Step 1: one task's window with the merge sets that justify it.
struct WindowFact {
  TaskId task = kInvalidTask;
  Time est = 0;  ///< E_i (Theorem 1: no schedule starts i earlier)
  Time lct = 0;  ///< L_i (Theorem 2: no schedule completes i later)
  /// M_i: predecessors merged when evaluating E_i (a prefix of the Figure 3
  /// candidate order attaining the minimum).
  std::vector<TaskId> merged_pred;
  /// G_i: successors merged when evaluating L_i (Figure 2 likewise).
  std::vector<TaskId> merged_succ;

  bool operator==(const WindowFact&) const = default;
};

/// Step 2: the Theorem 5 fact separating one block boundary: every task of
/// the blocks before the boundary completes by `earlier_finish`, and no task
/// after it may start before `later_start`.
struct SeparationFact {
  Time earlier_finish = 0;  ///< max L_i over all earlier blocks
  Time later_start = 0;     ///< min E_j over the next block

  bool operator==(const SeparationFact&) const = default;
};

/// Step 2: the partition of ST_r with its boundary witnesses.
struct PartitionCert {
  ResourceId resource = kInvalidResource;
  std::vector<std::vector<TaskId>> blocks;
  /// One fact per boundary: size == blocks.size() - 1 (empty for <= 1 block).
  std::vector<SeparationFact> separations;

  bool operator==(const PartitionCert&) const = default;
};

/// Step 3: one task's contribution Psi_i(t1, t2) to a witness interval.
struct PsiTerm {
  TaskId task = kInvalidTask;
  Time psi = 0;

  bool operator==(const PsiTerm&) const = default;
};

/// Step 3: the interval achieving the Eq. 6.3 peak, with its Theta decomposed
/// into per-task Psi terms (zero terms omitted).
struct IntervalWitness {
  Time t1 = 0;
  Time t2 = 0;
  /// Theta: total demand forced into [t1, t2]; equals the sum of `terms`.
  Time demand = 0;
  std::vector<PsiTerm> terms;

  bool operator==(const IntervalWitness&) const = default;
};

/// Step 3: LB_r with its witness. `witness` is required whenever bound > 0
/// (bound == 0 claims nothing and needs no evidence).
struct BoundCert {
  ResourceId resource = kInvalidResource;
  std::int64_t bound = 0;
  std::optional<IntervalWitness> witness;

  bool operator==(const BoundCert&) const = default;
};

/// EXTENSION: a conjunctive pair bound LB_{a,b} (same witness scheme; every
/// term's task must use BOTH a and b).
struct JointCert {
  ResourceId a = kInvalidResource;
  ResourceId b = kInvalidResource;
  std::int64_t bound = 0;
  std::optional<IntervalWitness> witness;

  bool operator==(const JointCert&) const = default;
};

/// Step 4, Eq. 7.1: cost >= sum of units * unit_cost, one term per analyzed
/// resource (in the same order as `Certificate::bounds`).
struct SharedCostTerm {
  ResourceId resource = kInvalidResource;
  std::int64_t units = 0;
  Cost unit_cost = 0;

  bool operator==(const SharedCostTerm&) const = default;
};

struct SharedCostCert {
  Cost total = 0;
  std::vector<SharedCostTerm> terms;

  bool operator==(const SharedCostCert&) const = default;
};

/// Step 4, Eq. 7.2 (dedicated model). When feasible, `node_counts` is an
/// integral assembly satisfying every covering/hosting row with objective
/// exactly `total`, and `dual` is a feasible dual vector of the LP
/// relaxation whose value is `relaxation` — a machine-checkable proof that
/// EVERY system costs at least `relaxation`. (Exact ILP optimality of
/// `total` rests on the branch-and-bound solver and is outside the
/// certificate; the checker certifies relaxation <= cost and that `total`
/// is attained by a real assembly.) When infeasible, `infeasible_reason`
/// names a checkable cause.
struct DedicatedCostCert {
  bool feasible = false;

  /// One of: "task-unhostable" (detail_task has empty eta_i),
  /// "uncovered-resource" (detail_resource has bound > 0 but no node type
  /// supplies it), "uncovered-pair" (no node type carries both
  /// detail_resource and detail_resource_b), "no-node-types". Anything else
  /// — e.g. a solver node-limit abort — is NOT certifiable and is rejected.
  std::string infeasible_reason;
  TaskId detail_task = kInvalidTask;
  ResourceId detail_resource = kInvalidResource;
  ResourceId detail_resource_b = kInvalidResource;

  Cost total = 0;
  std::vector<std::int64_t> node_counts;  ///< primal witness x, one per node type
  double relaxation = 0;
  std::vector<double> dual;  ///< dual witness y, one per canonical row

  /// True when the program included the conjunctive pair rows (the
  /// joint-strengthened Eq. 7.2); determines the canonical row order the
  /// `dual` vector is indexed by.
  bool joint_rows = false;

  bool operator==(const DedicatedCostCert&) const = default;
};

/// The full pipeline certificate for one analyze() run.
struct Certificate {
  int version = kCertificateVersion;
  /// "shared" or "dedicated" — must match how the instance is checked.
  bool dedicated = false;
  std::size_t num_tasks = 0;

  std::vector<WindowFact> windows;          ///< one per task, ascending id
  std::vector<PartitionCert> partitions;    ///< resource_set() order
  std::vector<BoundCert> bounds;            ///< resource_set() order
  bool has_joint = false;                   ///< joint_bounds extension ran
  std::vector<JointCert> joint;             ///< pair order (a < b)
  SharedCostCert shared_cost;
  std::optional<DedicatedCostCert> dedicated_cost;

  bool operator==(const Certificate&) const = default;
};

/// Serialize to the on-disk JSON layout (see docs/CERTIFICATES.md). Renders
/// `cert` by reference: dump it while `cert` lives.
JsonRender certificate_json(const Certificate& cert);

/// Rebuild a Certificate from parsed JSON. Throws CertificateFormatError on
/// any structural problem (wrong types, missing fields, unknown version,
/// out-of-range numbers). Values are NOT judged here — that is the checker.
Certificate parse_certificate(const Json& doc);

/// Convenience: JSON text -> Certificate. Throws JsonParseError on malformed
/// JSON and CertificateFormatError on a structurally bad document.
Certificate parse_certificate_text(std::string_view text);

}  // namespace rtlb
