// rtlb_perfbench: runs one benchmark workload and prints its metrics.
//
//   rtlb_perfbench --workload check_large|fleet_small|session_deltas
//                  --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--golden FILE] [--print-golden]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. A detail file with the environment,
// the tail percentile and sample count, and any failed check goes to
// <out-dir>/<workload>-seed<N>-trace<T>.json. Exit codes: 0 result printed,
// 2 usage, 3 refused (a build or environment that measures a different
// program, or a workload that used more threads than nproc).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"

using namespace perfbench;
using rtlb::Json;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload check_large|fleet_small|session_deltas --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--golden FILE] [--print-golden]\n",
               argv0);
  return 2;
}

bool env_switch_on(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' && std::string_view(value) != "0";
}

/// Reasons this process would measure a different program than the one
/// users run; empty when it may report.
std::vector<std::string> refusals() {
  std::vector<std::string> why;
#ifndef __OPTIMIZE__
  why.push_back("unoptimized build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why.push_back("sanitized build");
#endif
  if (std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string_view::npos) {
    why.push_back("sanitizer flags in the build");
  }
#if defined(RTLB_SESSION_VERIFY) || defined(RTLB_WINDOWS_REFERENCE)
  why.push_back("cross-checking build (RTLB_SESSION_VERIFY / RTLB_WINDOWS_REFERENCE)");
#endif
  for (const char* name : {"RTLB_SESSION_VERIFY", "RTLB_WINDOWS_REFERENCE"}) {
    if (env_switch_on(name)) why.push_back(std::string(name) + " is set");
  }
  return why;
}

/// Peak resident set of this process image: VmHWM. getrusage's ru_maxrss
/// is not used because it survives exec, so it would report the launcher's
/// peak (a Python interpreter is larger than this program) instead of ours.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  return 0;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric(const std::string& name, double value, const char* unit) {
  return "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit + "\"}";
}

Json summary_json(const OpSummary& s) {
  Json j = Json::object();
  j.set("inputs", static_cast<std::int64_t>(s.inputs))
      .set("repetitions_per_input", static_cast<std::int64_t>(s.repetitions))
      .set("op_ms_p50", s.p50_ms)
      .set("op_ms_tail", s.tail_ms.value)
      .set("tail_percentile", s.tail_ms.percentile)
      .set("samples", static_cast<std::int64_t>(s.tail_ms.samples))
      .set("items_per_s", s.items_per_s);
  return j;
}

const char* per_layer_unit(const std::string& name) {
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_ratio") || name == "trace.coverage") return "ratio";
  if (name.ends_with("_per_s")) return "1/s";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return usage(argv[0]);
        options.trace = t == "1";
        have_trace = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--golden") {
        options.golden_path = value();
      } else if (arg == "--print-golden") {
        options.print_golden = true;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  void (*run)(const Options&, RunResult&) = nullptr;
  if (options.workload == "check_large") run = run_check_large;
  if (options.workload == "fleet_small") run = run_fleet_small;
  if (options.workload == "session_deltas") run = run_session_deltas;
  if (run == nullptr || !have_seed || !have_seconds || !have_trace) return usage(argv[0]);

  options.parallel_threads = nproc();
  const std::vector<std::string> refused = refusals();
  if (!refused.empty()) {
    for (const std::string& why : refused) std::fprintf(stderr, "refused: %s\n", why.c_str());
    return 3;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  RunResult result;
  try {
    run(options, result);
  } catch (const std::exception& e) {
    result.problem(std::string("run aborted: ") + e.what());
  }
  // Each workload records the worker count its options resolve to.
  if (result.threads > nproc()) {
    std::fprintf(stderr, "refused: the workload used %d threads, more than nproc (%d)\n",
                 result.threads, nproc());
    return 3;
  }
  if (options.print_golden) {
    std::printf("%s\n", Golden::printed().dump(2).c_str());
    return 0;
  }

  const bool correct = result.problems.empty() && result.failed == 0 && result.attempted > 0;
  const OpSummary best = summarize_best(result);
  const OpSummary whole = summarize_all(result);
  std::string metrics;
  auto add = [&](const std::string& m) { metrics += (metrics.empty() ? "" : ", ") + m; };
  if (!options.trace) {
    add(metric("setup_s", median(result.setup_s), "s"));
    add(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    add(metric("op_ms_p50", best.p50_ms, "ms"));
    add(metric("op_ms_tail", best.tail_ms.value, "ms"));
    add(metric("items_per_s", best.items_per_s, "1/s"));
  } else {
    for (const std::string& name : per_layer_names()) {
      auto it = result.layers.find(name);
      add(metric(name, it == result.layers.end() ? 0.0 : it->second, per_layer_unit(name)));
    }
  }

  // Detail file: everything a reader needs to judge the run.
  Json env = Json::object();
  env.set("nproc", nproc())
      .set("hardware_concurrency", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .set("threads", result.threads)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("cxx_flags", PERFBENCH_CXX_FLAGS);
  Json setup = Json::array();
  for (double s : result.setup_s) setup.push(s);
  Json problems = Json::array();
  for (const std::string& p : result.problems) problems.push(p);
  // Median latency of each second of the run: how steady the machine was.
  Json by_second = Json::array();
  for (std::size_t i = 0; i < result.op_ms.size();) {
    std::vector<double> second;
    const double end = std::floor(result.op_end_s[i]) + 1;
    for (; i < result.op_ms.size() && result.op_end_s[i] < end; ++i) {
      second.push_back(result.op_ms[i]);
    }
    by_second.push(median(second));
  }
  const double error_rate =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;
  Json detail = Json::object();
  detail.set("workload", options.workload)
      .set("seed", static_cast<std::int64_t>(options.seed))
      .set("seconds", options.seconds)
      .set("trace", options.trace)
      .set("environment", std::move(env))
      .set("details", result.info)
      .set("attempted", static_cast<std::int64_t>(result.attempted))
      .set("failed", static_cast<std::int64_t>(result.failed))
      .set("error_rate", error_rate)
      .set("setup_s_samples", std::move(setup))
      .set("best_per_input", summary_json(best))
      .set("whole_run", summary_json(whole))
      .set("op_ms_p50_by_second", std::move(by_second))
      .set("problems", std::move(problems))
      .set("metrics", Json::parse("{" + metrics + "}"));
  std::ofstream(options.out_dir + "/" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") + ".json")
      << detail.dump(2) << "\n";

  for (const std::string& p : result.problems) std::printf("problem: %s\n", p.c_str());
  std::printf("%s: %llu attempted, %llu failed (error rate %.6g); fastest of >= %zu runs of "
              "each of %zu inputs: tail = p%.4g of %zu samples; whole run: p50 %.6g ms, "
              "tail %.6g ms\n",
              options.workload.c_str(), static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), error_rate, best.repetitions,
              best.inputs, best.tail_ms.percentile, best.tail_ms.samples, whole.p50_ms,
              whole.tail_ms.value);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
