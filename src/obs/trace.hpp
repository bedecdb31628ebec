// Observability layer: stage spans and named counters on a monotonic clock.
//
// The analysis pipeline (src/core/pipeline.hpp) is instrumented with RAII
// spans -- one per stage, nested under one "pipeline" root span per run --
// and per-span counters (blocks scanned, intervals evaluated, cache hits,
// thread-pool tasks dispatched). Everything funnels through a Trace object
// the CALLER owns and passes in via AnalysisOptions::trace; when that
// pointer is null (the default) the instrumentation collapses to a single
// branch per span and the pipeline runs at full speed -- tracing off is the
// shipping configuration and costs <1% (bench_pipeline measures it).
//
// Two export formats:
//   * Trace::json()        -- {"spans": [...], "counters": [...]}, the
//                             stable schema tests and reports consume;
//   * Trace::chrome_json() -- the Chrome trace-event format ("traceEvents"
//                             complete events, microsecond timestamps),
//                             loadable in chrome://tracing and Perfetto.
//
// A Trace is NOT thread-safe: the pipeline records spans only from the
// calling thread (worker threads are accounted via counters, not spans),
// and drivers that fan work over a pool use one Trace per driver thread.
#pragma once

#include <cstdint>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.hpp"

namespace rtlb {

/// One named tally attached to a span (or to the trace root).
struct TraceCounter {
  std::string name;
  std::int64_t value = 0;
};

/// One closed span: a named interval on the trace's monotonic clock.
/// `parent` indexes the enclosing span in Trace::spans(), -1 for roots, so
/// consumers can rebuild the nesting exactly (the schema test does).
struct TraceSpan {
  std::string name;
  std::uint64_t start_ns = 0;  ///< offset from the Trace epoch
  std::uint64_t dur_ns = 0;    ///< 0 while still open
  int parent = -1;
  std::vector<TraceCounter> counters;
};

/// An append-only recording of spans and counters. Spans open/close in
/// strict stack order (enforced); counters accumulate on the innermost open
/// span, or on the trace root when no span is open.
class Trace {
 public:
  Trace() : epoch_(std::chrono::steady_clock::now()) {}

  /// Open a span; returns its index. Prefer ScopedSpan.
  int begin_span(std::string_view name);
  /// Close the innermost open span (must be `index` -- strict LIFO).
  void end_span(int index);

  /// Add `delta` to the named counter of the innermost open span (the trace
  /// root when none is open). Counters with the same name on the same span
  /// accumulate.
  void count(std::string_view name, std::int64_t delta);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceCounter>& root_counters() const { return root_counters_; }
  /// Number of spans still open (0 after balanced instrumentation).
  std::size_t open_depth() const { return open_.size(); }

  /// Drop every recorded span and counter; the epoch is preserved so spans
  /// recorded before and after a clear stay on one clock.
  void clear();

  /// Stable schema: {"spans": [{"name", "start_us", "dur_us", "parent",
  /// "counters": {..}}], "counters": {..}}. Timestamps in integer
  /// microseconds. Renders this trace by reference.
  JsonRender json() const;

  /// Chrome trace-event format: {"traceEvents": [{"name", "cat", "ph": "X",
  /// "ts", "dur", "pid", "tid", "args": {..}}], "displayTimeUnit": "ms"}.
  JsonRender chrome_json() const;

 private:
  std::uint64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  std::vector<TraceCounter> root_counters_;
};

/// Null-safe RAII span: does nothing at all when constructed with a null
/// Trace, so instrumented code needs no "if (tracing)" around its spans or
/// counters.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string_view name)
      : trace_(trace), index_(trace ? trace->begin_span(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->end_span(index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Counter on THIS span (no-op when tracing is off).
  void count(std::string_view name, std::int64_t delta) {
    if (trace_ != nullptr) trace_->count(name, delta);
  }

  /// Span index in the owning trace; -1 when tracing is off.
  int index() const { return index_; }

 private:
  Trace* trace_;
  int index_;
};

}  // namespace rtlb
