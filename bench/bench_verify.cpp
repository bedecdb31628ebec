// Cost of the certificate layer: what does proof-carrying analysis add on
// top of the pipeline it certifies?
//
// Four timings per workload size, dedicated model with joint rows (the
// heaviest certificate):
//   analyze        the plain pipeline (the baseline being certified)
//   + emit         pipeline plus build_certificate (witness assembly and the
//                  explicit dual LP solve)
//   + check        pipeline plus emission plus the independent checker --
//                  the check_certificates=true tripwire configuration
//   check only     check_certificate on a prebuilt certificate: the cost an
//                  auditor pays via tools/rtlb_check, without the pipeline
//   round-trip     certificate_json -> dump -> parse_certificate_text, the
//                  serialization cost of shipping the certificate
// Results go to BENCH_verify.json (benchutil::export_json) with
// reps/hardware_concurrency/degraded; every timing is serial, so no row is
// ever degraded. RTLB_BENCH_REPS overrides the best-of rep count (CI smoke
// uses 1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "src/core/analysis.hpp"
#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"
#include "src/verify/emit.hpp"
#include "src/workload/taskset_gen.hpp"

using namespace rtlb;

namespace {

ProblemInstance make_workload(std::size_t num_tasks, std::uint64_t seed = 41) {
  WorkloadParams params;
  params.seed = seed;
  params.shape = GraphShape::Layered;
  params.num_tasks = num_tasks;
  params.num_layers = std::max<std::size_t>(4, num_tasks / 8);
  params.preemptive_prob = 0.25;
  params.release_spread = 0.3;
  return generate_workload(params);
}

AnalysisOptions verify_options(bool emit, bool check) {
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  options.joint_bounds = true;
  options.emit_certificates = emit;
  options.check_certificates = check;
  return options;
}

void run_report() {
  const int reps = benchutil::rep_count(5);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  Table t({"tasks", "analyze ms", "+emit ms", "+check ms", "check-only ms",
           "round-trip ms", "cert KiB", "check overhead"});
  Json series = Json::array();

  for (const std::size_t n : {16u, 32u, 64u, 128u}) {
    ProblemInstance inst = make_workload(n);
    const Application& app = *inst.app;
    const DedicatedPlatform* platform = &inst.platform;

    const double analyze_ms = benchutil::time_ms(
        [&] { analyze(app, verify_options(false, false), platform); }, reps);
    const double emit_ms = benchutil::time_ms(
        [&] { analyze(app, verify_options(true, false), platform); }, reps);
    const double check_ms = benchutil::time_ms(
        [&] { analyze(app, verify_options(true, true), platform); }, reps);

    const AnalysisResult result = analyze(app, verify_options(true, false), platform);
    const Certificate& cert = *result.certificate;
    const double check_only_ms =
        benchutil::time_ms([&] { check_certificate(cert, app, platform); }, reps);
    const std::string text = certificate_json(cert).dump(2);
    const double round_trip_ms = benchutil::time_ms([&] {
      const Certificate reparsed = parse_certificate_text(certificate_json(cert).dump(2));
      benchmark::DoNotOptimize(reparsed.num_tasks);
    }, reps);

    const double overhead = analyze_ms > 0 ? check_ms / analyze_ms : 0.0;
    char a[32], e[32], c[32], co[32], rt[32], kib[32], ov[32];
    std::snprintf(a, sizeof a, "%.3f", analyze_ms);
    std::snprintf(e, sizeof e, "%.3f", emit_ms);
    std::snprintf(c, sizeof c, "%.3f", check_ms);
    std::snprintf(co, sizeof co, "%.3f", check_only_ms);
    std::snprintf(rt, sizeof rt, "%.3f", round_trip_ms);
    std::snprintf(kib, sizeof kib, "%.1f", static_cast<double>(text.size()) / 1024.0);
    std::snprintf(ov, sizeof ov, "%.2fx", overhead);
    t.add(n, a, e, c, co, rt, kib, ov);

    Json point = Json::object();
    point.set("tasks", static_cast<std::int64_t>(n))
        .set("analyze_ms", analyze_ms)
        .set("emit_ms", emit_ms)
        .set("check_ms", check_ms)
        .set("check_only_ms", check_only_ms)
        .set("round_trip_ms", round_trip_ms)
        .set("cert_bytes", static_cast<std::int64_t>(text.size()))
        .set("check_overhead", overhead);
    series.push(std::move(point));
  }

  std::printf("== certificate layer cost (dedicated model, joint rows, best of %d) ==\n%s\n",
              reps, t.to_string().c_str());
  benchutil::export_csv(t, "BENCH_verify");

  Json root = Json::object();
  root.set("config", "dedicated+joint")
      .set("reps", static_cast<std::int64_t>(reps))
      .set("hardware_concurrency", static_cast<std::int64_t>(hw))
      .set("degraded", false)
      .set("series", std::move(series));
  benchutil::export_json(root, "BENCH_verify");
}

void BM_EmitCertificate(benchmark::State& state) {
  ProblemInstance inst = make_workload(static_cast<std::size_t>(state.range(0)));
  const AnalysisOptions options = verify_options(true, false);
  const AnalysisResult result = analyze(*inst.app, options, &inst.platform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_certificate(*inst.app, options, &inst.platform, result));
  }
}
BENCHMARK(BM_EmitCertificate)->RangeMultiplier(2)->Range(16, 128);

void BM_CheckCertificate(benchmark::State& state) {
  ProblemInstance inst = make_workload(static_cast<std::size_t>(state.range(0)));
  const AnalysisOptions options = verify_options(true, false);
  const AnalysisResult result = analyze(*inst.app, options, &inst.platform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check_certificate(*result.certificate, *inst.app, &inst.platform).valid);
  }
}
BENCHMARK(BM_CheckCertificate)->RangeMultiplier(2)->Range(16, 128);

}  // namespace

int main(int argc, char** argv) {
  run_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
