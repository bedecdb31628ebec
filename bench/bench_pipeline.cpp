// Per-stage cost profile of the unified analysis pipeline, plus the price
// of the instrumentation itself.
//
// Two questions, answered on a generated workload and on the delta-sweep
// shape bench_session uses:
//  (a) where does a cold run spend its time? One traced run per rep; the
//      per-stage span durations (lint_gate / windows / partitions / bounds
//      / costs) are recorded per rep and summarized as MEDIANS, so a perf
//      regression shows up AS a stage, not as an undifferentiated total.
//  (b) what does tracing cost? The same run is timed with options.trace
//      null (the shipping configuration) and with a live Trace; the
//      null-pointer design means the disabled overhead must stay under 1%
//      (the acceptance bar; see src/obs/trace.hpp).
//
// Measurement discipline: traced and untraced iterations are INTERLEAVED
// (u, t, u, t, ...) and summarized by median. The original back-to-back
// design (all untraced reps, then all traced reps) let any drift between
// the two batches -- frequency scaling, cache warmup, a background process
// -- land entirely on one side, which is how the committed profile once
// reported a negative tracing overhead (-0.62%). Interleaving puts drift on
// both sides equally; medians discard the outlier iterations entirely.
//
// (c) what does text cost around the pipeline? Parsing the instance file,
//     and dumping the JSON report and the certificate of a certified
//     dedicated-model query with its lint findings (the rtlb_check --emit
//     shape), each timed alone over the same number of reps.
//
// Results go to BENCH_pipeline.json (benchutil::export_json), including
// hardware_concurrency and a "degraded" flag that is true when the run asked
// for more workers than the machine has -- numbers from such a run measure
// oversubscription, not the engine.
//
// RTLB_BENCH_REPS overrides the rep count (CI smoke runs set it to 1, which
// keeps the schema intact while costing one pipeline run per side).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/model/io.hpp"
#include "src/obs/trace.hpp"
#include "src/verify/certificate.hpp"
#include "src/workload/taskset_gen.hpp"

using namespace rtlb;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = (m + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid))) / 2.0;
  }
  return m;
}

double time_once_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// True (with a stderr warning) when the options ask for more workers than
/// the machine has -- the timings then measure oversubscription.
bool check_degraded(int num_threads) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned requested = ThreadPool::resolve_threads(num_threads);
  if (requested <= hw) return false;
  std::fprintf(stderr,
               "warning: benchmark requested %u workers on %u hardware threads; "
               "timings are degraded by oversubscription\n",
               requested, hw);
  return true;
}

void run_report() {
  WorkloadParams params;
  params.seed = 61;
  params.num_tasks = 192;
  params.laxity = 1.3;
  ProblemInstance inst = generate_workload(params);

  AnalysisOptions options;
  options.lower_bound.enable_pruning = true;

  const int reps = benchutil::rep_count(9);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool degraded = check_degraded(options.lower_bound.num_threads);

  // Interleaved u/t iterations; traced reps also carry the stage spans.
  Trace trace;
  AnalysisOptions traced_options = options;
  traced_options.trace = &trace;
  std::vector<double> untraced_samples, traced_samples;
  std::map<std::string, std::vector<double>> stage_samples;
  for (int i = 0; i < reps; ++i) {
    untraced_samples.push_back(time_once_ms(
        [&] { benchmark::DoNotOptimize(run_pipeline(*inst.app, options)); }));
    trace.clear();
    traced_samples.push_back(time_once_ms(
        [&] { benchmark::DoNotOptimize(run_pipeline(*inst.app, traced_options)); }));
    std::map<std::string, double> rep_totals;
    for (const TraceSpan& span : trace.spans()) {
      rep_totals[span.name] += static_cast<double>(span.dur_ns) / 1e6;
    }
    for (const auto& [name, ms] : rep_totals) stage_samples[name].push_back(ms);
  }

  const std::string text = serialize_instance(*inst.app, inst.platform);
  AnalysisOptions emit_options = options;
  emit_options.model = SystemModel::Dedicated;
  emit_options.lint_level = LintLevel::kReport;
  emit_options.emit_certificates = true;
  emit_options.check_certificates = true;
  const AnalysisResult emitted = run_pipeline(*inst.app, emit_options, &inst.platform);
  std::vector<double> parse_samples, report_samples, certificate_samples;
  for (int i = 0; i < reps; ++i) {
    parse_samples.push_back(time_once_ms([&] {
      benchmark::DoNotOptimize(parse_instance_string(text, ParseOptions{.validate = false}));
    }));
    report_samples.push_back(
        time_once_ms([&] { benchmark::DoNotOptimize(report_json(*inst.app, emitted).dump()); }));
    certificate_samples.push_back(time_once_ms(
        [&] { benchmark::DoNotOptimize(certificate_json(*emitted.certificate).dump()); }));
  }

  const double untraced_ms = median(untraced_samples);
  const double traced_ms = median(traced_samples);
  const double overhead_pct =
      untraced_ms > 0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms : 0;

  Table t({"stage", "median ms"});
  double pipeline_ms = 0;
  std::map<std::string, double> stages;
  for (const auto& [name, samples] : stage_samples) {
    const double ms = median(samples);
    stages[name] = ms;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", ms);
    t.add(name, buf);
    if (name == "pipeline") pipeline_ms = ms;
  }
  std::printf("== per-stage pipeline profile (%zu tasks, %d interleaved reps) ==\n%s\n",
              static_cast<std::size_t>(params.num_tasks), reps, t.to_string().c_str());
  std::printf("untraced %.3f ms, traced %.3f ms (overhead %.2f%%, medians)\n",
              untraced_ms, traced_ms, overhead_pct);
  std::printf("text I/O: parse %.3f ms, report_json %.3f ms, certificate_json %.3f ms "
              "(medians)\n\n",
              median(parse_samples), median(report_samples), median(certificate_samples));
  benchutil::export_csv(t, "bench_pipeline_stages");

  Json root = Json::object();
  Json workload = Json::object();
  workload.set("seed", static_cast<std::int64_t>(params.seed))
      .set("num_tasks", static_cast<std::int64_t>(params.num_tasks))
      .set("laxity", params.laxity);
  root.set("workload", std::move(workload));
  Json stage_json = Json::object();
  for (const auto& [name, ms] : stages) {
    if (name != "pipeline") stage_json.set(name, ms);
  }
  root.set("stages_ms", std::move(stage_json));
  root.set("pipeline_ms", pipeline_ms);
  root.set("untraced_ms", untraced_ms);
  root.set("traced_ms", traced_ms);
  root.set("trace_overhead_percent", overhead_pct);
  root.set("text_io_ms", Json::object()
                             .set("parse", median(parse_samples))
                             .set("report_json", median(report_samples))
                             .set("certificate_json", median(certificate_samples)));
  root.set("reps", static_cast<std::int64_t>(reps));
  root.set("hardware_concurrency", static_cast<std::int64_t>(hw));
  root.set("degraded", degraded);
  benchutil::export_json(root, "BENCH_pipeline");
}

void BM_PipelineUntraced(benchmark::State& state) {
  WorkloadParams params;
  params.seed = 61;
  params.num_tasks = static_cast<std::size_t>(state.range(0));
  ProblemInstance inst = generate_workload(params);
  AnalysisOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(*inst.app, options));
  }
}
BENCHMARK(BM_PipelineUntraced)->RangeMultiplier(2)->Range(32, 128);

void BM_PipelineTraced(benchmark::State& state) {
  WorkloadParams params;
  params.seed = 61;
  params.num_tasks = static_cast<std::size_t>(state.range(0));
  ProblemInstance inst = generate_workload(params);
  Trace trace;
  AnalysisOptions options;
  options.trace = &trace;
  for (auto _ : state) {
    trace.clear();
    benchmark::DoNotOptimize(run_pipeline(*inst.app, options));
  }
}
BENCHMARK(BM_PipelineTraced)->RangeMultiplier(2)->Range(32, 128);

}  // namespace

int main(int argc, char** argv) {
  run_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
