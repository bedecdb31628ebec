// Machine-readable analysis reports.
//
// Serializes an AnalysisResult (plus enough of the application to interpret
// it) to JSON, for plotting pipelines and external tooling. The inverse of
// nothing -- reports are write-only snapshots; the instance itself travels
// in the text format of src/model/io.hpp. Each producer returns a
// JsonRender that writes the text straight from the result; a caller that
// inspects a report parses the dumped text with Json::parse.
#pragma once

#include <string>

#include "src/common/json.hpp"
#include "src/core/analysis.hpp"
#include "src/core/session.hpp"

namespace rtlb {

class Trace;

/// Full report: tasks (with windows and merge sets), partitions, bounds
/// (with witnesses and exact densities), and cost floors. Renders `app`
/// and `result` by reference: dump it while both live.
JsonRender report_json(const Application& app, const AnalysisResult& result);

/// Same report with a "timing" block -- the Trace::json() of the run that
/// produced `result` (pass the Trace the run's AnalysisOptions::trace
/// pointed at). Timing lives on the report, never on the AnalysisResult:
/// results stay bit-identical across runs, reports of instrumented runs
/// carry the wall-clock story.
JsonRender report_json(const Application& app, const AnalysisResult& result,
                       const Trace* trace);

/// Convenience: report_json(...).dump(2).
std::string report_string(const Application& app, const AnalysisResult& result);

/// The per-stage hit/miss counters of one AnalysisSession: {"queries",
/// "query_hits", "gate_runs", "window_hits", ... , "verified"}.
JsonRender session_stats_json(const SessionStats& stats);

/// Report of a session's CURRENT result (serves the query if needed), with
/// the reuse counters attached under "session". The query is served now and
/// the counters copied; the result is rendered from the session, so dump it
/// before the next delta or query.
JsonRender report_json(AnalysisSession& session);

}  // namespace rtlb
