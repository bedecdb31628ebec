// Shared machinery of the rtlb benchmark: run options, the result
// record every workload fills, output digests, and the per-layer profile
// that folds trace spans into self times.
//
// Workloads time their operations with a steady clock and record them on a
// RunResult; with --trace 1 they additionally wrap every call into a layer
// in a ScopedSpan on LayerProfile::trace(), and the profile turns the spans
// of each operation into per-layer self times (a span's duration minus the
// part its child spans cover).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the detail file and the trace exports.
  std::string out_dir = ".bench_build/out";
  /// Committed digests of the golden outputs (see golden.json).
  std::string golden_path = "perfbench/golden.json";
  /// Print this build's golden digests instead of checking them.
  bool print_golden = false;
  /// Worker threads of the measured operations. One: on a machine shared
  /// with other tenants, a parallel stage waits for its slowest CPU, so its
  /// latency follows the neighbours' load more than the program's.
  int threads = 1;
  /// Worker threads of the untimed parallel checks and the scaling ratios:
  /// the CPUs this process may use.
  int parallel_threads = 1;
};

/// CPUs this process may run on (what `nproc` prints).
int nproc();

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Wall-clock budget of one measurement phase.
class Budget {
 public:
  explicit Budget(double seconds)
      : start_(std::chrono::steady_clock::now()), seconds_(seconds) {}
  bool left() const { return seconds_since(start_) < seconds_; }

 private:
  std::chrono::steady_clock::time_point start_;
  double seconds_;
};

/// 64-bit FNV-1a, fed in pieces: the digest of the concatenated bytes, so
/// long outputs are digested as they are produced instead of being kept.
class Digest {
 public:
  Digest& add(std::string_view bytes);
  std::string hex() const;  ///< 16 hex digits

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::string digest(std::string_view bytes) { return Digest().add(bytes).hex(); }

/// Everything one run measures. Operations that throw or return a wrong
/// output count as failed; any other broken check is a problem, and either
/// makes the run incorrect.
struct RunResult {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  /// Untraced operations, in order: latency, items completed (queries,
  /// fleet instances or deltas), end time counted from the first, and the
  /// input the operation ran. Operations with the same input do the same
  /// work, so their latencies differ only in how busy the machine was.
  std::vector<double> op_ms;
  std::vector<std::uint64_t> op_items;
  std::vector<double> op_end_s;
  std::vector<std::size_t> op_input;
  /// Worker threads the workload's options resolve to (ThreadPool rules).
  int threads = 1;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> layers;  ///< per-layer metrics (--trace 1)
  rtlb::Json info = rtlb::Json::object();  ///< workload details for the detail file

  void op(double ms, std::uint64_t op_items, bool ok, std::size_t input);
  /// A successful operation whose time is not an end-to-end sample.
  void untimed_op() { ++attempted; }
  void fail(const std::string& what);
  void problem(const std::string& what);
};

/// Spreads a run's set-up repetitions over its measurement. The first
/// repetition, timed by the workload, builds what the run measures; each
/// later one rebuilds it in place between operations and returns the
/// seconds its set-up work took. What is rebuilt is released first, so set-up
/// never holds two copies of it, and setup_s samples the machine at several
/// moments of the run instead of in one burst. A rebuild may leave the
/// measured state colder than before (emptied caches): the operations it
/// slows are not the fastest of their inputs, so the metrics skip them.
class SetupSampler {
 public:
  SetupSampler(RunResult& result, double seconds, int extra_reps, std::function<double()> rep)
      : result_(result), seconds_(seconds), reps_(extra_reps), rep_(std::move(rep)) {}

  /// Call between operations: runs the next repetition once it is due.
  void poll();

 private:
  RunResult& result_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  double seconds_;
  int reps_;
  int done_ = 0;
  std::function<double()> rep_;
};

/// Moves the calling thread from CPU to CPU of the process's affinity set,
/// one step per `period_s` seconds, and gives it the whole set back when
/// destroyed. A single thread otherwise stays on the CPU it started on, and
/// on a shared host one CPU can run 1.5x slower than another for minutes
/// (a neighbour busy on the same core); in turn, every input meets every CPU.
class CpuRotor {
 public:
  explicit CpuRotor(double period_s = 0.2);
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  /// Call between operations: moves to the next CPU once it is due.
  void poll();

 private:
  std::size_t next_ = 0;
  double period_s_;
  std::chrono::steady_clock::time_point moved_{};
};

/// Runs `rep` once on each CPU of the process's affinity set, in turn, and
/// returns the mean of the seconds it returns; the calling thread then
/// keeps the affinity it had. For set-up work of a few milliseconds, shorter
/// than the phases in which one CPU of a shared host runs slower than
/// another: timed on one CPU, its repetitions fall into two speeds.
double mean_on_each_cpu(const std::function<double()>& rep);

/// The committed digests of each workload's golden outputs.
class Golden {
 public:
  Golden(const Options& options, RunResult& result);
  /// Compare (or, under --print-golden, record) one digest.
  void check(const std::string& key, const Digest& bytes);
  /// Under --print-golden: the recorded digests as one JSON object.
  static rtlb::Json printed();

 private:
  const Options& options_;
  RunResult& result_;
  rtlb::Json committed_;
};

/// Folds the spans of each traced operation into per-layer totals. Span
/// names are layer metric names without the unit ("core.bounds"); the spans
/// the pipeline records itself ("windows", "lint_gate", ...) are renamed to
/// the same layers. The first few operations stay in the trace for export.
class LayerProfile {
 public:
  rtlb::Trace* trace() { return &trace_; }

  void begin_op();
  void end_op();

  /// Time measured outside any operation span, attributed to `layer`.
  void add_outside(const std::string& layer, double us) { outside_us_[layer] += us; }

  std::uint64_t ops() const { return ops_; }
  double op_us() const { return ops_ > 0 ? op_us_ / static_cast<double>(ops_) : 0; }
  /// Share of the traced operation time covered by layer self times.
  double coverage() const { return op_us_ > 0 ? covered_us_ / op_us_ : 0; }
  /// Mean self time per operation of a layer (spans named `layer`).
  double self_us(const std::string& layer) const;
  /// Mean total time per operation of a layer (children included).
  double total_us(const std::string& layer) const;
  double outside_us(const std::string& layer) const;
  /// Mean counter value per operation.
  double count(const std::string& name) const;

  /// Write the exported operations as <prefix>-trace.json (Trace::json) and
  /// <prefix>-chrome.json (Trace::chrome_json).
  void export_files(const std::string& prefix) const;

 private:
  static constexpr std::uint64_t kExportOps = 8;

  rtlb::Trace trace_;
  int root_ = -1;
  std::size_t first_span_ = 0;
  std::uint64_t ops_ = 0;
  double op_us_ = 0;
  double covered_us_ = 0;
  std::map<std::string, double> self_us_, total_us_, outside_us_, counters_;
  std::string exported_json_, exported_chrome_;
};

/// The per-layer metric names, in BENCHMARK.json order.
const std::vector<std::string>& per_layer_names();

/// Mean latency of the run's untraced operations, in microseconds.
double mean_op_us(const RunResult& result);

/// Fill the trace-derived per-layer metrics every workload reports.
void record_profile(const LayerProfile& profile, double untraced_op_us, RunResult& result);

/// Median, and the order statistic with ten samples beyond it or, with
/// fewer than a hundred samples, the p90 one.
double median(std::vector<double> values);
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// Latency and throughput over a set of untraced operations.
struct OpSummary {
  std::size_t inputs = 0;       ///< distinct inputs the operations ran
  std::size_t repetitions = 0;  ///< fewest operations on one input
  double p50_ms = 0;
  Tail tail_ms;
  double items_per_s = 0;  ///< items per second of operation time
};

/// Over every operation of the run.
OpSummary summarize_all(const RunResult& result);

/// Over each input's fastest operation: the latency of the same work at the
/// moment other tenants of a shared machine slowed it least. Their slowdowns
/// come and go within seconds, so an input that repeats often enough meets
/// a quiet moment, and the figure repeats from run to run.
OpSummary summarize_best(const RunResult& result);

// The three workloads (check_large.cpp, fleet_small.cpp, session_deltas.cpp).
void run_check_large(const Options& options, RunResult& result);
void run_fleet_small(const Options& options, RunResult& result);
void run_session_deltas(const Options& options, RunResult& result);

}  // namespace perfbench
