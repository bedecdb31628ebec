// The analysis pipeline replayed from outside, one layer call at a time.
//
// replay_pipeline() calls the public entry points run_pipeline() sequences
// -- the lint passes (on a LintContext filled the way Linter::run fills
// it), compute_windows, partition_all, all_resource_bounds, the cost
// bounds, certificate emission and checking -- followed by the report and
// certificate serialization, each inside a span named after its layer. A
// traced run is only valid while its replay reproduces the pipeline: every
// caller compares the replayed bytes with run_pipeline's.
#pragma once

#include <string>

#include "src/core/analysis.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

struct ReplayOutput {
  rtlb::AnalysisResult result;
  std::string report;       ///< report_json(app, result).dump()
  std::string certificate;  ///< certificate_json(...).dump(); empty without one
};

/// Cold run_pipeline(app, options, platform) as separate layer calls, spanned
/// into `trace` (may be null). Supports the option sets the workloads use:
/// no joint bounds, no Trace in `options`.
ReplayOutput replay_pipeline(const rtlb::Application& app, const rtlb::AnalysisOptions& options,
                             const rtlb::DedicatedPlatform* platform, rtlb::Trace* trace);

/// The same outputs from run_pipeline itself, for comparison.
ReplayOutput run_and_serialize(const rtlb::Application& app,
                               const rtlb::AnalysisOptions& options,
                               const rtlb::DedicatedPlatform* platform);

}  // namespace perfbench
