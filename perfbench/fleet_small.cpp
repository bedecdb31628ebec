// fleet_small: bulk analysis of many small instances through run_fleet().
//
// Closed loop, one client; run_fleet on one thread, with all oracles off and
// cold baselines. The grid is shape x task count x laxity x workload form x
// system model, one instance per cell. Each operation is one run_fleet call
// over a twelfth of it -- one shape, one laxity and one system model, so that
// every operation holds the same mix of sizes and workload forms -- under
// one of a fixed set of seeds; the operations are taken in turn. Every CPU
// the process may run on is used only by the untimed checks and, in a
// traced run, by the parallel batches of fleet.scaling_ratio.
#include <algorithm>
#include <chrono>
#include <optional>

#include "harness.hpp"
#include "replay.hpp"
#include "src/baselines/trivial_bounds.hpp"
#include "src/common/random.hpp"
#include "src/common/thread_pool.hpp"
#include "src/fleet/runner.hpp"
#include "src/workload/workload.hpp"

namespace perfbench {

using namespace rtlb;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kPerCell = 1;
constexpr int kExtraSetupReps = 16;
/// Batch b runs grid slice b % 12, so batches 0..11 cover the grid once.
constexpr std::uint64_t kSlices = 12;
/// The timed operations: batches kSlices .. kSlices + kBatches - 1.
/// Small batches keep an operation short: on a shared host, a short
/// operation more often runs through a moment in which the neighbours
/// leave its CPU alone, so each batch's fastest time repeats from run to
/// run.
constexpr std::uint64_t kBatches = 48;
/// Seeds drawn for each batch, of which the one of median weight is taken.
constexpr std::uint64_t kCandidates = 5;
constexpr std::uint64_t kGoldenSeed = 1;

/// Slice s: shape s / 4, laxity s % 2, system model s / 2 % 2.
ScenarioSpec grid_slice(std::uint64_t spec_seed, std::uint64_t slice) {
  constexpr GraphShape kShapes[] = {GraphShape::Layered, GraphShape::ForkJoin,
                                    GraphShape::SeriesParallel};
  ScenarioSpec spec;
  spec.name = "perfbench";
  spec.seed = spec_seed;
  spec.instances_per_cell = kPerCell;
  spec.shapes = {kShapes[slice / 4 % 3]};
  spec.task_counts = {16, 32};
  spec.laxities = {slice % 2 == 0 ? 1.5 : 3.0};
  spec.workloads = {WorkloadForm::Flat, WorkloadForm::Periodic, WorkloadForm::Sporadic};
  spec.models = {slice / 2 % 2 == 0 ? SystemModel::Shared : SystemModel::Dedicated};
  spec.defaults.num_resources = 3;
  spec.defaults.resource_prob = 0.4;
  return spec;
}

FleetOptions fleet_options(int threads) {
  FleetOptions o;
  o.threads = threads;
  o.oracles.parallel = false;
  o.oracles.session = false;
  o.oracles.certificate = false;
  o.oracles.lint = false;
  return o;
}

/// The fleet's baseline configuration (src/fleet/runner.cpp).
AnalysisOptions baseline_options(SystemModel model) {
  AnalysisOptions o;
  o.model = model;
  o.lower_bound.num_threads = 1;
  o.lint_level = LintLevel::kReport;
  o.emit_certificates = true;
  return o;
}

ProblemInstance make_instance(const ScenarioSpec& spec, const ScenarioCell& cell,
                              std::size_t k) {
  const WorkloadParams params = spec.instance_params(cell, k);
  if (cell.workload == WorkloadForm::Flat) return generate_workload(params);
  return generate_recurrent_instance(params, cell.workload == WorkloadForm::Periodic
                                                 ? ReleaseKind::kPeriodic
                                                 : ReleaseKind::kSporadic);
}

/// Sum of the squared lowered task counts of a batch's instances: about
/// what its analysis costs.
double batch_weight(const ScenarioSpec& spec) {
  double weight = 0;
  for (const ScenarioCell& cell : spec.cells()) {
    for (std::size_t k = 0; k < spec.instances_per_cell; ++k) {
      const double n = static_cast<double>(make_instance(spec, cell, k).app->num_tasks());
      weight += n * n;
    }
  }
  return weight;
}

/// Batch b: grid slice b % 12 under the median-weight one of kCandidates
/// seeds. A periodic or sporadic cell lowers to 1x-8x its template tasks by
/// seed, so a few large instances can double a batch's time; taking the
/// median candidate keeps the run's total work nearly the same for every
/// seed.
ScenarioSpec batch_spec(std::uint64_t seed, std::uint64_t batch) {
  std::vector<std::pair<double, std::uint64_t>> candidates;
  for (std::uint64_t c = 0; c < kCandidates; ++c) {
    const std::uint64_t spec_seed = split_seed(seed, batch, c);
    candidates.emplace_back(batch_weight(grid_slice(spec_seed, batch % kSlices)), spec_seed);
  }
  std::sort(candidates.begin(), candidates.end());
  return grid_slice(candidates[kCandidates / 2].second, batch % kSlices);
}

const DedicatedPlatform* platform_for(const ScenarioCell& cell, const ProblemInstance& inst) {
  return cell.model == SystemModel::Dedicated ? &inst.platform : nullptr;
}

std::string fleet_bytes(const ScenarioSpec& spec, const FleetRunResult& run) {
  return fleet_report_json(spec, run.aggregates, 1, 0, run.complete).dump();
}

bool clean(const ScenarioSpec& spec, const FleetRunResult& run) {
  if (!run.complete || run.aggregates.instances != spec.total_instances() ||
      !run.aggregates.divergences.empty()) {
    return false;
  }
  for (const CellAggregate& cell : run.aggregates.cells) {
    if (cell.check_failures != 0) return false;
  }
  return true;
}

/// The per-cell statistics run_fleet folds from one baseline result.
std::int64_t bound_sum(const Application& app, const AnalysisResult& ref) {
  const std::vector<std::int64_t> work = all_work_bounds(app, ref.windows);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < work.size() && i < ref.bounds.size(); ++i) {
    if (work[i] > 0) sum += ref.bounds[i].bound;
  }
  return sum;
}

/// Untimed check of one batch: the report does not depend on the worker
/// count, every baseline certificate passes the independent checker, and
/// the fleet's per-cell aggregates match baselines recomputed here.
void verify_batch(const ScenarioSpec& spec, const FleetRunResult& serial_run, int threads,
                  RunResult& result) {
  const FleetRunResult parallel_run = run_fleet(spec, fleet_options(threads));
  if (fleet_bytes(spec, serial_run) != fleet_bytes(spec, parallel_run)) {
    result.problem("fleet report differs between 1 and nproc threads");
  }
  const std::vector<ScenarioCell> cells = spec.cells();
  for (const ScenarioCell& cell : cells) {
    std::int64_t sum = 0;
    std::uint64_t errors = 0, warnings = 0, notes = 0;
    for (std::size_t k = 0; k < spec.instances_per_cell; ++k) {
      const ProblemInstance inst = make_instance(spec, cell, k);
      const DedicatedPlatform* platform = platform_for(cell, inst);
      const AnalysisResult ref = analyze(*inst.app, baseline_options(cell.model), platform);
      if (!check_certificate(*ref.certificate, *inst.app, platform).valid) {
        result.problem("certificate rejected by the checker in cell " + cell.label());
      }
      sum += bound_sum(*inst.app, ref);
      errors += static_cast<std::uint64_t>(ref.lint->errors);
      warnings += static_cast<std::uint64_t>(ref.lint->warnings);
      notes += static_cast<std::uint64_t>(ref.lint->notes);
    }
    const CellAggregate& agg = parallel_run.aggregates.cells[cell.index];
    if (agg.bound_sum != sum || agg.lint_errors != errors || agg.lint_warnings != warnings ||
        agg.lint_notes != notes) {
      result.problem("fleet aggregates differ from the baselines in cell " + cell.label());
    }
  }
}

/// One traced replay of what run_fleet does per instance with oracles off.
void traced_instance(const ScenarioSpec& spec, const ScenarioCell& cell, std::size_t k,
                     LayerProfile& profile, RunResult& result) {
  Trace* trace = profile.trace();
  profile.begin_op();
  ProblemInstance inst;
  ReplayOutput out;
  try {
    {
      ScopedSpan span(trace, "workload.generate");
      inst = make_instance(spec, cell, k);
      if (cell.workload != WorkloadForm::Flat) {
        span.count("workload.lowered_tasks", static_cast<std::int64_t>(inst.app->num_tasks()));
      }
    }
    out = replay_pipeline(*inst.app, baseline_options(cell.model), platform_for(cell, inst),
                          trace);
    {
      ScopedSpan span(trace, "fleet.stats");
      (void)bound_sum(*inst.app, out.result);
    }
    profile.end_op();
  } catch (const std::exception& e) {
    profile.end_op();
    result.fail(e.what());
    return;
  }
  if (cell.workload != WorkloadForm::Flat) {
    const Clock::time_point start = Clock::now();
    const Application lowered = lower_workload(*inst.catalog, inst.workload);
    profile.add_outside("workload.lower", seconds_since(start) * 1e6);
  }
  const ReplayOutput ref =
      run_and_serialize(*inst.app, baseline_options(cell.model), platform_for(cell, inst));
  if (ref.report != out.report || ref.certificate != out.certificate) {
    result.problem("traced replay differs from run_pipeline in cell " + cell.label() +
                   ": the trace is void");
  }
}

/// The closed loop over `batches` in turn; returns instances per second of
/// busy time. With a sampler, the batches are the run's end-to-end
/// operations, and the loop moves from CPU to CPU.
double fleet_loop(const std::vector<ScenarioSpec>& batches, int threads, double seconds,
                  SetupSampler* sampler, RunResult& result) {
  double busy_s = 0;
  std::uint64_t instances = 0;
  std::optional<CpuRotor> rotor;
  if (sampler != nullptr) rotor.emplace();
  Budget budget(seconds);
  for (std::uint64_t n = 0; budget.left(); ++n) {
    if (sampler != nullptr) {
      rotor->poll();
      sampler->poll();
    }
    const std::size_t batch = n % batches.size();
    const ScenarioSpec& spec = batches[batch];
    try {
      const Clock::time_point start = Clock::now();
      const FleetRunResult run = run_fleet(spec, fleet_options(threads));
      const double s = seconds_since(start);
      const bool ok = clean(spec, run);
      if (!ok) result.problem("fleet batch " + std::to_string(batch) + " not clean");
      if (sampler != nullptr) {
        result.op(s * 1000.0, spec.total_instances(), ok, batch);
      } else if (!ok) {
        result.fail("fleet batch");
      } else {
        result.untimed_op();
      }
      busy_s += s;
      instances += spec.total_instances();
    } catch (const std::exception& e) {
      result.fail(e.what());
    }
  }
  return busy_s > 0 ? static_cast<double>(instances) / busy_s : 0;
}

}  // namespace

void run_fleet_small(const Options& options, RunResult& result) {
  const FleetOptions fleet_opts = fleet_options(options.threads);
  // The most threads any stage uses: the untimed check runs the batch on
  // every CPU.
  result.threads = std::max(static_cast<int>(ThreadPool::resolve_threads(fleet_opts.threads)),
                            options.parallel_threads);
  if (fleet_opts.oracles.parallel) {
    result.threads = std::max(result.threads, fleet_opts.oracles.parallel_threads);
  }
  {
    Golden golden(options, result);
    Digest reports;
    for (std::uint64_t b = 0; b < kSlices; ++b) {
      const ScenarioSpec spec = batch_spec(kGoldenSeed, b);
      reports.add(fleet_bytes(spec, run_fleet(spec, fleet_opts)));
    }
    golden.check("fleet_report", reports);
  }

  // Set-up: one warm-up pass over the grid, batches 0..11.
  std::vector<ScenarioSpec> first;
  for (std::uint64_t b = 0; b < kSlices; ++b) first.push_back(batch_spec(options.seed, b));
  std::vector<FleetRunResult> warm(first.size());
  auto set_up = [&] {
    for (FleetRunResult& run : warm) run = {};
    const Clock::time_point start = Clock::now();
    for (std::size_t b = 0; b < first.size(); ++b) warm[b] = run_fleet(first[b], fleet_opts);
    return seconds_since(start);
  };
  result.setup_s.push_back(set_up());
  for (std::size_t b = 0; b < first.size(); ++b) {
    if (!clean(first[b], warm[b])) result.problem("fleet set-up batch not clean");
    verify_batch(first[b], warm[b], options.parallel_threads, result);
  }

  // The timed batches' specs; choosing them generates each candidate's
  // instances, untimed.
  std::vector<ScenarioSpec> batches;
  for (std::uint64_t b = kSlices; b < kSlices + kBatches; ++b) {
    batches.push_back(batch_spec(options.seed, b));
  }
  const double timed_s = options.trace ? options.seconds / 3 : options.seconds;
  SetupSampler sampler(result, timed_s, kExtraSetupReps, set_up);
  const double serial_rate = fleet_loop(batches, options.threads, timed_s, &sampler, result);
  if (options.trace) {
    const double parallel_rate =
        fleet_loop(batches, options.parallel_threads, options.seconds / 3, nullptr, result);
    LayerProfile profile;
    Budget budget(options.seconds / 3);
    for (std::uint64_t n = 0; budget.left(); ++n) {
      const ScenarioSpec& spec = batches[n % batches.size()];
      for (const ScenarioCell& cell : spec.cells()) {
        for (std::size_t k = 0; k < spec.instances_per_cell && budget.left(); ++k) {
          traced_instance(spec, cell, k, profile, result);
        }
      }
    }
    result.layers["fleet.serial_instances_per_s"] = serial_rate;
    result.layers["fleet.scaling_ratio"] = serial_rate > 0 ? parallel_rate / serial_rate : 0;
    record_profile(profile, serial_rate > 0 ? 1e6 / serial_rate : 0, result);
    profile.export_files(options.out_dir + "/fleet_small");
  }

  result.info.set("instances_per_batch", static_cast<std::int64_t>(first[0].total_instances()))
      .set("cells_per_batch", static_cast<std::int64_t>(first[0].num_cells()))
      .set("batches", static_cast<std::int64_t>(kBatches))
      .set("loop", "closed")
      .set("clients", 1)
      .set("threads", options.threads)
      .set("item", "fleet instance (an operation is one run_fleet batch)");
}

}  // namespace perfbench
