// Independent certificate checker.
//
// check_certificate() re-judges every fact of a Certificate against the
// theorem side-conditions using ONLY the problem model (src/model) and the
// scalar helpers of src/common. It deliberately shares no code with the
// src/core producers: mergeability (Definitions 1/2), the ect/lst folds of
// Section 4, the Psi formulas of Theorems 3/4, and the Eq. 7.2 constraint
// rows are all re-implemented here from the paper. A bug in the optimized
// pipeline (parallel scan units, memoized sessions, cache keys) therefore
// cannot also hide in the checker.
//
// Cost: O(certificate size) with small per-fact factors — prefix
// re-enumeration for a window fact is quadratic in the task's fan-in/out,
// everything else is linear passes.
#pragma once

#include <string>
#include <vector>

#include "src/model/application.hpp"
#include "src/model/platform.hpp"
#include "src/verify/certificate.hpp"

namespace rtlb {

/// One violated side-condition, pinpointed: which pipeline stage, which rule
/// (stable machine-readable name like "T3.psi" or "E7.2.dual-feasible"),
/// which subject (task/resource/row), and a human-readable detail.
struct CheckFailure {
  std::string stage;    ///< "windows", "partition", "bound", "joint", "cost"
  std::string rule;     ///< stable rule id, see docs/CERTIFICATES.md
  std::string subject;  ///< e.g. "task 3", "resource 1", "row 4"
  std::string detail;

  bool operator==(const CheckFailure&) const = default;
};

struct CheckReport {
  bool valid = true;
  std::vector<CheckFailure> failures;  ///< every violation found, in stage order

  /// One line per failure: "stage/rule subject: detail".
  std::string summary() const;

  bool operator==(const CheckReport&) const = default;
};

/// Check `cert` against the instance. `platform` is required iff the
/// certificate claims the dedicated model (a mismatch is itself a failure).
/// Never throws on bad certificate VALUES — all violations are collected in
/// the report; only an inconsistent model (broken Application) can throw.
CheckReport check_certificate(const Certificate& cert, const Application& app,
                              const DedicatedPlatform* platform);

}  // namespace rtlb
