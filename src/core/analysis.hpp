// One-call facade over the analysis stages of Section 3:
//   1. EST/LCT evaluation (est_lct)
//   2. partitioning (partition)
//   3. resource lower bounds (lower_bound)
//   4. cost lower bounds (cost_bound)
//
// This is the main entry point of the public API; the example programs and
// most benches go through analyze(). Since the pipeline refactor, analyze()
// is a thin driver over run_pipeline() (src/core/pipeline.hpp) with
// nothing to reuse -- the staged sequencing, the pre-flight lint gate, the
// certificate post-stage, and the per-stage instrumentation all live there,
// shared bit-for-bit with the memoized AnalysisSession.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/core/cost_bound.hpp"
#include "src/core/est_lct.hpp"
#include "src/core/joint_bound.hpp"
#include "src/core/lower_bound.hpp"
#include "src/core/partition.hpp"
#include "src/lint/linter.hpp"
#include "src/model/application.hpp"
#include "src/model/platform.hpp"
#include "src/model/recurrent.hpp"
#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"

namespace rtlb {

class Trace;  // src/obs/trace.hpp; options carry only a non-owning pointer

enum class SystemModel {
  /// All resources reachable from all processors (Figure 1(b)).
  Shared,
  /// System assembled from node types with dedicated resources (Figure 1(a)).
  Dedicated,
};

/// Pre-flight lint gate of analyze(): how much static analysis runs before
/// the bound engine, and what it refuses. Lint never mutates the model, so
/// for a lint-clean instance the analysis output is byte-identical at every
/// level.
enum class LintLevel {
  /// No lint. Only the historical Application::validate() first-error check.
  kOff,
  /// Run the linter and record its diagnostics on the result; refuse only
  /// structurally broken instances (same refusal set as validate(), but as a
  /// batched LintGateError instead of a first-error ModelError).
  kReport,
  /// Also refuse instances with ANY error-level finding -- e.g. a task whose
  /// derived window cannot contain it, or a dedicated-model task no node
  /// type can host. Prunes provably hopeless instances before bounding.
  kErrors,
  /// Refuse warnings too (the --werror gate).
  kWarnings,
};

struct AnalysisOptions {
  SystemModel model = SystemModel::Shared;
  LowerBoundOptions lower_bound;
  /// EXTENSION: also compute conjunctive pair bounds (src/core/joint_bound.hpp)
  /// and use them to strengthen the dedicated cost ILP. Off by default to
  /// keep the default pipeline exactly the paper's.
  bool joint_bounds = false;
  /// Pre-flight lint gate; kOff keeps the historical pipeline exactly.
  /// Refusals throw LintGateError (carrying the whole diagnostic batch).
  LintLevel lint_level = LintLevel::kOff;

  /// Emit the pipeline certificate (src/verify) on AnalysisResult::certificate
  /// -- the witnesses behind every stage, serializable for tools/rtlb_check.
  bool emit_certificates = false;

  /// Also run the independent checker in-process after every analyze() (and
  /// every session-served query): the certificate is re-judged against the
  /// theorem side-conditions, the verdict lands on
  /// AnalysisResult::certificate_check, and an INVALID certificate throws
  /// CertificateCheckError -- a regression tripwire for the parallel and
  /// memoized paths. Implies emit_certificates.
  bool check_certificates = false;

  /// Observability sink (non-owning, may be null -- the default, which costs
  /// nothing but one branch per stage). When set, every pipeline run records
  /// a "pipeline" span with one child span per stage plus work counters;
  /// export with Trace::chrome_json() or attach to reports via
  /// report_json(app, result, trace). The pointer is configuration, not
  /// analysis input: it never affects any computed value.
  Trace* trace = nullptr;
};

/// check_certificates found a violated side-condition: the pipeline produced
/// a result its own certificate cannot justify. Carries the full report with
/// every pinpointed failure.
class CertificateCheckError : public std::runtime_error {
 public:
  explicit CertificateCheckError(CheckReport report)
      : std::runtime_error("certificate check failed:\n" + report.summary()),
        report_(std::move(report)) {}

  const CheckReport& report() const { return report_; }

 private:
  CheckReport report_;
};

struct AnalysisResult {
  /// Step 1 output: [E_i, L_i] windows and the merge sets M_i / G_i.
  TaskWindows windows;
  /// Step 2 output: per-resource partitions, in resource_set() order.
  std::vector<ResourcePartition> partitions;
  /// Step 3 output: LB_r per resource, in resource_set() order.
  std::vector<ResourceBound> bounds;
  /// Step 4 output, shared model (always computed; for the dedicated model it
  /// is still a valid statement about resource units).
  SharedCostBound shared_cost;
  /// Step 4 output, dedicated model; present iff a platform was supplied.
  /// With options.joint_bounds set, this is the strengthened (joint-row)
  /// program.
  std::optional<DedicatedCostBound> dedicated_cost;

  /// EXTENSION output: conjunctive pair bounds (empty unless
  /// options.joint_bounds was set).
  std::vector<JointBound> joint;

  /// Pre-flight lint diagnostics; present iff options.lint_level != kOff.
  /// Instances that pass the gate can still carry warnings and notes here
  /// (they are also embedded in the JSON report).
  std::optional<LintResult> lint;

  /// Pipeline certificate; present iff options.emit_certificates (or
  /// check_certificates) was set. Serialize with certificate_json().
  std::optional<Certificate> certificate;

  /// Checker verdict; present iff options.check_certificates was set. When
  /// analyze() returned normally this is always valid (an invalid verdict
  /// throws CertificateCheckError instead), so its value in a live result is
  /// the positive statement "this result was independently re-judged".
  std::optional<CheckReport> certificate_check;

  /// The lower-bound engine configuration this result was computed with
  /// (recorded so reports can state how the numbers were produced).
  LowerBoundOptions lb_options;

  /// Sorted (resource, bound) lookup index over `bounds`, rebuilt by the
  /// pipeline whenever the bound stage completes. bound_for() sits inside
  /// the synthesis/annealing hot loops, so it binary-searches this instead
  /// of scanning `bounds`; hand-assembled results that never called
  /// rebuild_bound_index() fall back to the linear scan (detected by a size
  /// mismatch), so the index can never serve stale answers silently.
  std::vector<std::pair<ResourceId, std::int64_t>> bound_index;
  void rebuild_bound_index();

  /// Lookup of the bound for a resource id; std::nullopt when the resource
  /// was not analyzed (not in RES), so "bound is 0" and "never analyzed"
  /// are distinguishable. O(log #resources) via bound_index.
  std::optional<std::int64_t> bound_for(ResourceId r) const;

  /// True if some task window cannot even contain the task ([E, L] shorter
  /// than C) -- a certificate that NO system meets the constraints.
  bool infeasible(const Application& app) const;

  /// Every field, exactly: at least everything report_json() writes (the
  /// report's other values derive from the Application), so two results of
  /// one instance are equal iff their reports are byte-identical, except
  /// where == is stricter (unreported fields, doubles past %.10g). The fleet
  /// oracles compare results this way instead of diffing report text.
  bool operator==(const AnalysisResult&) const = default;
};

/// Run all four steps. For SystemModel::Dedicated a platform is required;
/// for Shared it may be null (then only Eq. 7.1 is produced).
AnalysisResult analyze(const Application& app, const AnalysisOptions& options = {},
                       const DedicatedPlatform* platform = nullptr);

/// The recurrent front door: lint the workload templates, lower them over
/// the shared hyperperiod (src/workload/workload.hpp), and analyze the flat
/// instance. Template-level errors (RTLB-E5xx) ALWAYS refuse -- lowering a
/// broken template is meaningless -- regardless of lint_level; with
/// lint_level != kOff the template diagnostics are additionally merged in
/// front of the application-level batch on AnalysisResult::lint. Refusals
/// throw LintGateError carrying the template findings.
AnalysisResult analyze(const ResourceCatalog& catalog, const Workload& workload,
                       const AnalysisOptions& options = {},
                       const DedicatedPlatform* platform = nullptr);

/// Render the step-1 table in the layout of the paper's Table 1.
std::string format_windows_table(const Application& app, const TaskWindows& windows);

/// Render partitions ("ST_r = {..} < {..}") in the layout of Section 8 step 2.
std::string format_partitions(const Application& app,
                              const std::vector<ResourcePartition>& partitions);

/// Render the bounds with their witness intervals.
std::string format_bounds(const Application& app, const std::vector<ResourceBound>& bounds);

}  // namespace rtlb
