#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using rtlb::Json;

namespace {

/// The CPUs of the process's affinity set, read on first use: before any
/// thread pins itself to one of them.
const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> all;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return all;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) all.push_back(cpu);
    }
    return all;
  }();
  return cpus;
}

void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

int nproc() { return std::max<int>(1, static_cast<int>(process_cpus().size())); }

Digest& Digest::add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void RunResult::op(double ms, std::uint64_t op_items, bool ok, std::size_t input) {
  ++attempted;
  if (!ok) {
    ++failed;
    return;
  }
  static const std::chrono::steady_clock::time_point first = std::chrono::steady_clock::now();
  op_ms.push_back(ms);
  this->op_items.push_back(op_items);
  op_end_s.push_back(seconds_since(first));
  op_input.push_back(input);
}

void RunResult::fail(const std::string& what) {
  ++attempted;
  ++failed;
  if (problems.size() < 8) problems.push_back("failed operation: " + what);
}

void RunResult::problem(const std::string& what) {
  if (problems.size() < 8) problems.push_back(what);
}

void SetupSampler::poll() {
  if (done_ >= reps_ || seconds_since(start_) < seconds_ * (done_ + 1) / (reps_ + 1)) return;
  ++done_;
  result_.setup_s.push_back(rep_());
}

CpuRotor::CpuRotor(double period_s) : period_s_(period_s) { poll(); }

CpuRotor::~CpuRotor() {
  if (!process_cpus().empty()) pin(process_cpus());
}

void CpuRotor::poll() {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.size() < 2 || (next_ > 0 && seconds_since(moved_) < period_s_)) return;
  pin({cpus[next_ % cpus.size()]});
  ++next_;
  moved_ = std::chrono::steady_clock::now();
}

double mean_on_each_cpu(const std::function<double()>& rep) {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.size() < 2) return rep();
  cpu_set_t before;
  CPU_ZERO(&before);
  const bool restore = sched_getaffinity(0, sizeof before, &before) == 0;
  double total = 0;
  for (int cpu : cpus) {
    pin({cpu});
    total += rep();
  }
  if (restore) sched_setaffinity(0, sizeof before, &before);
  return total / static_cast<double>(cpus.size());
}

// -- Golden digests ---------------------------------------------------------

namespace {

Json& printed_digests() {
  static Json doc = Json::object();
  return doc;
}

}  // namespace

Golden::Golden(const Options& options, RunResult& result)
    : options_(options), result_(result) {
  if (options_.print_golden) return;
  std::ifstream in(options_.golden_path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in) {
    result_.problem("cannot read golden digests " + options_.golden_path);
    return;
  }
  committed_ = Json::parse(text.str());
}

void Golden::check(const std::string& key, const Digest& bytes) {
  const std::string full = options_.workload + "." + key;
  const std::string actual = bytes.hex();
  if (options_.print_golden) {
    printed_digests().set(full, actual);
    return;
  }
  const Json* expected = committed_.find(full);
  if (expected == nullptr || !expected->is_string()) {
    result_.problem("no committed golden digest for " + full);
  } else if (expected->as_string() != actual) {
    result_.problem("golden digest mismatch for " + full + ": expected " +
                    expected->as_string() + ", got " + actual);
  }
}

Json Golden::printed() { return printed_digests(); }

// -- Per-layer profile ------------------------------------------------------

namespace {

const std::vector<std::string> kPerLayer = {
    "model.parse_us",
    "workload.generate_us",
    "workload.lower_us",
    "workload.lowered_tasks",
    "lint.total_us",
    "lint.context.absint_us",
    "lint.context.windows_us",
    "lint.pass.structural_us",
    "lint.pass.temporal_us",
    "lint.pass.platform-coverage_us",
    "lint.pass.numeric-safety_us",
    "lint.pass.absint_us",
    "lint.pass.dataflow_us",
    "lint.pass.hygiene_us",
    "lint.pass.other_us",
    "core.pipeline_us",
    "core.windows_us",
    "core.partitions_us",
    "core.blocks",
    "core.bounds_us",
    "core.intervals_evaluated",
    "core.bounds_scaling_ratio",
    "core.costs_us",
    "lp.ilp_nodes",
    "verify.emit_us",
    "verify.check_us",
    "json.report_us",
    "json.certificate_us",
    "json.bytes",
    "session.mutate_us",
    "session.query_us",
    "session.query_self_us",
    "session.block_hit_ratio",
    "session.block_lookups",
    "session.lint_pass_hit_ratio",
    "session.lint_pass_lookups",
    "session.window_hit_ratio",
    "session.window_lookups",
    "session.query_hit_ratio",
    "session.queries",
    "fleet.stats_us",
    "fleet.serial_instances_per_s",
    "fleet.scaling_ratio",
    "trace.ops",
    "trace.op_us",
    "trace.untraced_op_us",
    "trace.coverage",
    "trace.overhead_ratio",
};

/// Layer of a span: the benchmark's own spans are named after their layer;
/// the spans run_pipeline records itself are renamed to the same layers,
/// and lint passes without a metric of their own fold into
/// "lint.pass.other".
std::string layer_of(const std::string& span) {
  static const std::map<std::string, std::string> kPipelineSpans = {
      {"pipeline", "core.pipeline"},  {"lint_gate", "lint.total"},
      {"windows", "core.windows"},    {"partitions", "core.partitions"},
      {"bounds", "core.bounds"},      {"costs", "core.costs"},
      {"certificates", "verify.emit"},
  };
  if (auto it = kPipelineSpans.find(span); it != kPipelineSpans.end()) return it->second;
  if (span.starts_with("lint.pass.")) {
    static const std::set<std::string> known(kPerLayer.begin(), kPerLayer.end());
    if (!known.contains(span + "_us")) return "lint.pass.other";
  }
  return span;
}

std::string counter_of(const std::string& counter) {
  static const std::map<std::string, std::string> kPipelineCounters = {
      {"blocks", "core.blocks"},
      {"intervals_evaluated", "core.intervals_evaluated"},
      {"ilp_nodes", "lp.ilp_nodes"},
  };
  if (auto it = kPipelineCounters.find(counter); it != kPipelineCounters.end()) {
    return it->second;
  }
  return counter;
}

double per_op(const std::map<std::string, double>& totals, const std::string& key,
              std::uint64_t ops) {
  auto it = totals.find(key);
  return it == totals.end() || ops == 0 ? 0 : it->second / static_cast<double>(ops);
}

}  // namespace

const std::vector<std::string>& per_layer_names() { return kPerLayer; }

void LayerProfile::begin_op() {
  first_span_ = trace_.spans().size();
  root_ = trace_.begin_span("op");
}

void LayerProfile::end_op() {
  trace_.end_span(root_);
  const std::vector<rtlb::TraceSpan>& spans = trace_.spans();
  std::vector<double> child_us(spans.size() - first_span_, 0.0);
  for (std::size_t i = first_span_ + 1; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= static_cast<int>(first_span_)) {
      child_us[static_cast<std::size_t>(parent) - first_span_] +=
          static_cast<double>(spans[i].dur_ns) / 1000.0;
    }
  }
  const double root_us = static_cast<double>(spans[first_span_].dur_ns) / 1000.0;
  op_us_ += root_us;
  covered_us_ += child_us[0];
  for (std::size_t i = first_span_ + 1; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    const double dur = static_cast<double>(spans[i].dur_ns) / 1000.0;
    total_us_[layer] += dur;
    self_us_[layer] += dur - child_us[i - first_span_];
    for (const rtlb::TraceCounter& c : spans[i].counters) {
      counters_[counter_of(c.name)] += static_cast<double>(c.value);
    }
  }
  ++ops_;
  if (ops_ == kExportOps) {
    exported_json_ = trace_.json().dump(1);
    exported_chrome_ = trace_.chrome_json().dump(1);
  }
  if (ops_ >= kExportOps) trace_.clear();
}

double LayerProfile::self_us(const std::string& layer) const {
  return per_op(self_us_, layer, ops_);
}
double LayerProfile::total_us(const std::string& layer) const {
  return per_op(total_us_, layer, ops_);
}
double LayerProfile::outside_us(const std::string& layer) const {
  return per_op(outside_us_, layer, ops_);
}
double LayerProfile::count(const std::string& name) const {
  return per_op(counters_, name, ops_);
}

void LayerProfile::export_files(const std::string& prefix) const {
  const bool partial = ops_ < kExportOps;
  std::ofstream(prefix + "-trace.json")
      << (partial ? trace_.json().dump(1) : exported_json_) << "\n";
  std::ofstream(prefix + "-chrome.json")
      << (partial ? trace_.chrome_json().dump(1) : exported_chrome_) << "\n";
}

double mean_op_us(const RunResult& result) {
  double sum_ms = 0;
  for (double ms : result.op_ms) sum_ms += ms;
  return result.op_ms.empty() ? 0 : 1000.0 * sum_ms / static_cast<double>(result.op_ms.size());
}

void record_profile(const LayerProfile& profile, double untraced_op_us, RunResult& result) {
  auto set = [&](const std::string& name, double value) { result.layers.emplace(name, value); };
  for (const std::string& name : kPerLayer) {
    if (!name.ends_with("_us")) continue;
    const std::string layer = name.substr(0, name.size() - 3);
    if (layer == "lint.total" || layer == "session.query") {
      set(name, profile.total_us(layer));
    } else if (layer == "session.query_self") {
      set(name, profile.self_us("session.query"));
    } else if (layer == "workload.generate") {
      // generate_recurrent_instance lowers inside the generate span; the
      // lowering is timed again outside the operation and reported apart.
      const double generate = profile.self_us(layer);
      set(name, generate > 0 ? generate - profile.outside_us("workload.lower") : 0);
    } else if (layer == "workload.lower") {
      set(name, profile.outside_us(layer));
    } else if (!layer.starts_with("trace.")) {
      set(name, profile.self_us(layer));
    }
  }
  for (const char* counter : {"workload.lowered_tasks", "core.blocks",
                              "core.intervals_evaluated", "lp.ilp_nodes", "json.bytes"}) {
    set(counter, profile.count(counter));
  }
  set("trace.ops", static_cast<double>(profile.ops()));
  set("trace.op_us", profile.op_us());
  set("trace.untraced_op_us", untraced_op_us);
  set("trace.coverage", profile.coverage());
  set("trace.overhead_ratio", untraced_op_us > 0 ? profile.op_us() / untraced_op_us : 0);
}

// -- Order statistics --------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  constexpr std::size_t kBeyond = 10;
  const std::size_t n = values.size();
  // The sample with exactly ten larger ones, but never below p90: with fewer
  // than a hundred samples, ten beyond would reach down towards the median,
  // and the p90 sample (nearest rank) is reported instead.
  const std::size_t p90 = (9 * n + 9) / 10 - 1;
  const std::size_t index = n > kBeyond ? std::max(n - 1 - kBeyond, p90) : p90;
  t.value = values[index];
  t.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return t;
}

namespace {

OpSummary summarize(const RunResult& result, const std::vector<std::size_t>& ops) {
  OpSummary sum;
  std::map<std::size_t, std::size_t> per_input;
  std::vector<double> ms;
  double busy_s = 0, items = 0;
  for (std::size_t i : ops) {
    ++per_input[result.op_input[i]];
    ms.push_back(result.op_ms[i]);
    busy_s += result.op_ms[i] / 1000.0;
    items += static_cast<double>(result.op_items[i]);
  }
  sum.inputs = per_input.size();
  for (const auto& [input, n] : per_input) {
    sum.repetitions = sum.repetitions == 0 ? n : std::min(sum.repetitions, n);
  }
  sum.p50_ms = median(ms);
  sum.tail_ms = tail(std::move(ms));
  sum.items_per_s = busy_s > 0 ? items / busy_s : 0;
  return sum;
}

}  // namespace

OpSummary summarize_all(const RunResult& result) {
  std::vector<std::size_t> ops(result.op_ms.size());
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i] = i;
  return summarize(result, ops);
}

OpSummary summarize_best(const RunResult& result) {
  std::map<std::size_t, std::size_t> fastest;  // input -> its fastest operation
  for (std::size_t i = 0; i < result.op_ms.size(); ++i) {
    auto [it, added] = fastest.try_emplace(result.op_input[i], i);
    if (!added && result.op_ms[i] < result.op_ms[it->second]) it->second = i;
  }
  std::vector<std::size_t> ops;
  for (const auto& [input, i] : fastest) ops.push_back(i);
  OpSummary sum = summarize(result, ops);
  sum.repetitions = summarize_all(result).repetitions;
  return sum;
}

}  // namespace perfbench
