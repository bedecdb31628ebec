// Modeling-assumption experiment: the paper prices communication as pure
// latency on a contention-free ICN (Sec 2.2). This bench quantifies the
// assumption by executing contention-free schedules on progressively
// narrower shared buses and recording how many runs survive and how much
// queueing appears; and it checks the makespan baselines' behaviour under
// the same sweep (they, too, are contention-free analyses).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/common/thread_pool.hpp"

#include "src/baselines/makespan_bound.hpp"
#include "src/common/random.hpp"
#include "src/common/table.hpp"
#include "bench_util.hpp"
#include "src/core/analysis.hpp"
#include "src/sched/list_scheduler.hpp"
#include "src/sim/simulator.hpp"
#include "src/workload/taskset_gen.hpp"

using namespace rtlb;

namespace {

/// The large contention workload for the lower-bound engine comparison:
/// a long horizon of loosely-windowed background tasks (their overlapping
/// windows chain every ST_r into one wide Theorem-5 block, the worst case
/// for the O(P^2) scan) plus a few tight bursts whose stacked demand sets
/// the density peak. Every task contends for the processor pool plus 1-2 of
/// a few shared buses. The shape is what makes both engine features earn
/// their keep: the wide block fans out into many parallel scan units, and
/// the burst density lets the probe-seeded pruning discard almost every
/// wide low-density candidate interval.
ProblemInstance engine_workload(std::size_t background, std::size_t burst,
                                std::uint64_t seed) {
  Rng rng(seed);
  ProblemInstance inst;
  inst.catalog = std::make_unique<ResourceCatalog>();
  const ResourceId p = inst.catalog->add_processor_type("P1", 5);
  std::vector<ResourceId> buses;
  for (int r = 0; r < 3; ++r) {
    buses.push_back(inst.catalog->add_resource("bus" + std::to_string(r), 2));
  }
  inst.app = std::make_unique<Application>(*inst.catalog);

  const Time horizon = 60000;
  auto add_task = [&](const char* kind, std::size_t k, Time comp, Time release,
                      Time deadline) {
    Task t;
    t.name = std::string(kind) + std::to_string(k);
    t.comp = comp;
    t.release = release;
    t.deadline = deadline;
    t.proc = p;
    t.preemptive = rng.chance(0.3);
    t.resources.push_back(buses[static_cast<std::size_t>(rng.uniform(0, 2))]);
    if (rng.chance(0.4)) {
      const ResourceId extra = buses[static_cast<std::size_t>(rng.uniform(0, 2))];
      if (extra != t.resources.front()) t.resources.push_back(extra);
    }
    inst.app->add_task(std::move(t));
  };
  for (std::size_t k = 0; k < background; ++k) {
    const Time len = rng.uniform(1500, 4500);
    const Time release = rng.uniform(0, static_cast<int>(horizon - len));
    add_task("bg", k, rng.uniform(2, 10), release, release + len);
  }
  for (std::size_t k = 0; k < burst; ++k) {
    // Half the burst lands at the start of the horizon, half mid-horizon.
    const Time epoch = (k % 2 == 0) ? 0 : horizon / 2;
    const Time release = epoch + rng.uniform(0, 12);
    add_task("burst", k, rng.uniform(8, 16), release, release + rng.uniform(16, 40));
  }
  inst.app->validate();
  return inst;
}


/// Serial-vs-parallel (and pruned) engine comparison on one workload:
/// prints a table and returns the rows for BENCH_lower_bound.json.
/// Every config must reproduce the serial engine's bound and peak density
/// exactly; the full ResourceBound (witness and intervals_evaluated
/// included) must be bit-identical to the serial run WITH THE SAME pruning
/// setting -- that is the determinism guarantee (pruning itself may
/// legitimately pick a different equally-dense witness on an exact tie).
/// Times are best-of-`reps`.
struct EngineRows {
  double serial_ms = 0.0;
  Json configs;
};

EngineRows engine_configs(const char* title, const Application& app, const TaskWindows& w,
                    int reps, const char* csv_name) {
  std::printf("== Lower-bound engine: serial vs parallel vs pruned (%s) ==\n", title);
  struct Config {
    const char* name;
    int threads;
    bool prune;
  };
  const Config configs[] = {
      {"serial", 1, false},          {"serial+prune", 1, true},
      {"4 threads", 4, false},       {"4 threads+prune", 4, true},
      {"hw threads+prune", 0, true},
  };

  std::vector<ResourceBound> reference;         // serial, pruning off
  std::vector<ResourceBound> pruned_reference;  // serial, pruning on
  double serial_ms = 0.0;
  Table t({"config", "threads", "pruning", "ms", "speedup vs serial", "intervals",
           "results equal"});
  Json entries = Json::array();
  const unsigned hw = std::max(1u, std::jthread::hardware_concurrency());
  for (const Config& c : configs) {
    LowerBoundOptions opts;
    opts.num_threads = c.threads;
    opts.enable_pruning = c.prune;
    // More workers than hardware threads measures oversubscription, not the
    // engine; flag such rows so recorded speedups are read accordingly.
    const unsigned requested = ThreadPool::resolve_threads(c.threads);
    const bool degraded = requested > hw;
    if (degraded) {
      std::fprintf(stderr,
                   "warning: config '%s' requests %u workers on %u hardware threads; "
                   "its timing is degraded by oversubscription\n",
                   c.name, requested, hw);
    }
    std::vector<ResourceBound> bounds;
    const double ms =
        benchutil::time_ms([&] { bounds = all_resource_bounds(app, w, opts); }, reps);
    if (reference.empty()) {
      reference = bounds;
      serial_ms = ms;
    }
    std::vector<ResourceBound>& same_pruning = c.prune ? pruned_reference : reference;
    if (same_pruning.empty()) same_pruning = bounds;

    bool equal = bounds.size() == reference.size();
    bool deterministic = equal;
    std::uint64_t intervals = 0;
    for (std::size_t k = 0; equal && k < bounds.size(); ++k) {
      intervals += bounds[k].intervals_evaluated;
      equal = bounds[k].bound == reference[k].bound &&
              bounds[k].peak_density == reference[k].peak_density;
      deterministic = deterministic &&
                      bounds[k].witness_t1 == same_pruning[k].witness_t1 &&
                      bounds[k].witness_t2 == same_pruning[k].witness_t2 &&
                      bounds[k].witness_demand == same_pruning[k].witness_demand &&
                      bounds[k].intervals_evaluated == same_pruning[k].intervals_evaluated;
    }
    // A degraded config's wall time measures oversubscription, not the
    // engine, so it must not publish a speedup number at all -- a "54x"
    // headline from a row recorded on fewer hardware threads than workers
    // is noise dressed up as a result. The JSON carries null plus the
    // reason (the key is always present, null on honest rows, so the key
    // schema does not depend on the machine); the table prints n/a.
    const double speedup = ms > 0 ? serial_ms / ms : 0.0;
    char ms_s[32], sp_s[32];
    std::snprintf(ms_s, sizeof ms_s, "%.3f", ms);
    if (degraded) {
      std::snprintf(sp_s, sizeof sp_s, "n/a (degraded)");
    } else {
      std::snprintf(sp_s, sizeof sp_s, "%.2f", speedup);
    }
    t.add(c.name, c.threads, c.prune ? "on" : "off", ms_s, sp_s, intervals,
          equal && deterministic ? "yes" : "NO");

    Json entry = Json::object();
    entry.set("config", c.name)
        .set("num_threads", c.threads)
        .set("enable_pruning", c.prune)
        .set("ms", ms);
    if (degraded) {
      entry.set("speedup_vs_serial", Json())
          .set("speedup_excluded_reason",
               std::to_string(requested) + " workers oversubscribe " +
                   std::to_string(hw) + " hardware threads");
    } else {
      entry.set("speedup_vs_serial", speedup).set("speedup_excluded_reason", Json());
    }
    entry.set("intervals_evaluated", static_cast<std::int64_t>(intervals))
        .set("bounds_equal_serial", equal)
        .set("bitwise_equal_same_pruning_serial", deterministic)
        .set("degraded", degraded);
    entries.push(std::move(entry));
  }
  benchutil::export_csv(t, csv_name);
  std::printf("%s(every config reproduces the serial bound and peak density; configs\n"
              " with the same pruning setting are bit-identical incl. witness and\n"
              " intervals_evaluated -- the thread-count determinism guarantee)\n\n",
              t.to_string().c_str());
  return {serial_ms, std::move(entries)};
}

/// BENCH_lower_bound.json: the engine comparison on the contention workload
/// above, and on the 192-task bench_pipeline instance (seed 61, laxity 1.3,
/// shared model windows), whose bound stage is the pipeline's largest.
void lower_bound_engine_report() {
  const int reps = benchutil::rep_count(5);
  const std::size_t background = 600, burst = 18;
  ProblemInstance inst = engine_workload(background, burst, 71);
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(*inst.app, oracle);
  EngineRows contention =
      engine_configs("contention workload", *inst.app, w, reps, "lower_bound_engine");

  WorkloadParams params;
  params.seed = 61;
  params.num_tasks = 192;
  params.laxity = 1.3;
  ProblemInstance pipeline = generate_workload(params);
  const TaskWindows pw = compute_windows(*pipeline.app, oracle);
  EngineRows pipeline_rows = engine_configs("192-task bench_pipeline instance", *pipeline.app,
                                         pw, reps, "lower_bound_engine_pipeline");

  Json root = Json::object();
  Json workload = Json::object();
  workload.set("tasks", static_cast<std::int64_t>(inst.app->num_tasks()))
      .set("background_tasks", static_cast<std::int64_t>(background))
      .set("burst_tasks", static_cast<std::int64_t>(burst))
      .set("resources", static_cast<std::int64_t>(inst.catalog->size()));
  Json pipeline_workload = Json::object();
  pipeline_workload.set("tasks", static_cast<std::int64_t>(pipeline.app->num_tasks()))
      .set("seed", static_cast<std::int64_t>(params.seed))
      .set("laxity", params.laxity)
      .set("resources", static_cast<std::int64_t>(pipeline.catalog->size()));
  Json pipeline_entry = Json::object();
  pipeline_entry.set("workload", std::move(pipeline_workload))
      .set("serial_ms", pipeline_rows.serial_ms)
      .set("configs", std::move(pipeline_rows.configs));
  root.set("bench", "bench_contention lower-bound engine comparison")
      .set("reps", static_cast<std::int64_t>(reps))
      .set("workload", std::move(workload))
      .set("hardware_concurrency",
           static_cast<std::int64_t>(std::jthread::hardware_concurrency()))
      .set("serial_ms", contention.serial_ms)
      .set("configs", std::move(contention.configs))
      .set("pipeline_instance", std::move(pipeline_entry));
  benchutil::export_json(root, "BENCH_lower_bound");
}

void print_report() {
  std::printf("== Contention-free schedules on a k-link bus ==\n");
  Table t({"links", "runs ok", "runs broken", "mean queueing (ticks)", "max queueing"});
  for (int links : {0, 8, 4, 2, 1}) {
    int ok = 0, broken = 0;
    Time total_queued = 0, max_queued = 0;
    int measured = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      WorkloadParams params;
      params.seed = seed * 23;
      params.num_tasks = 22;
      params.num_proc_types = 2;
      params.num_resources = 1;
      params.laxity = 1.8;
      params.msg_min = 1;
      params.msg_max = 6;
      ProblemInstance inst = generate_workload(params);
      const AnalysisResult res = analyze(*inst.app);
      Capacities start(inst.catalog->size(), 0);
      for (const ResourceBound& b : res.bounds) {
        start.set(b.resource, static_cast<int>(b.bound));
      }
      const ProvisioningResult prov = provision_shared(*inst.app, start, 60);
      if (!prov.feasible) continue;
      const ListScheduleResult sched = list_schedule_shared(*inst.app, prov.caps);
      SimOptions options;
      options.network_links = links;
      const SimReport rep = simulate_shared(*inst.app, sched.schedule, prov.caps, options);
      ++measured;
      if (rep.ok) ++ok;
      else ++broken;
      total_queued += rep.network_queued;
      max_queued = std::max(max_queued, rep.network_queued);
    }
    char mean[32];
    std::snprintf(mean, sizeof mean, "%.1f",
                  measured ? static_cast<double>(total_queued) / measured : 0.0);
    t.add(links == 0 ? "inf (paper)" : std::to_string(links), ok, broken, mean, max_queued);
  }
  benchutil::export_csv(t, "contention_sweep");
  std::printf("%s(the paper's bounds remain valid lower bounds regardless -- contention\n"
              " only ADDS constraints -- but schedules built against the contention-\n"
              " free model start missing inputs once the bus narrows)\n\n",
              t.to_string().c_str());

  std::printf("== Makespan baselines under processor scaling (zero-comm class) ==\n");
  Table m({"seed", "m", "t_c", "work", "F-B", "J-R", "EDF makespan"});
  for (std::uint64_t seed : {3ull, 9ull}) {
    WorkloadParams params;
    params.seed = seed;
    params.num_tasks = 18;
    params.num_proc_types = 1;
    params.num_resources = 0;
    params.msg_min = params.msg_max = 0;
    params.laxity = 10.0;
    ProblemInstance inst = generate_workload(params);
    for (int procs = 1; procs <= 4; ++procs) {
      const MakespanBound b = makespan_lower_bound(*inst.app, procs);
      Capacities caps(inst.catalog->size(), procs);
      const ListScheduleResult r = list_schedule_shared(*inst.app, caps);
      m.add(seed, procs, b.critical_time, b.work_bound, b.fb_bound, b.jr_bound,
            r.feasible ? r.schedule.makespan(*inst.app) : -1);
    }
  }
  benchutil::export_csv(m, "makespan_bounds");
  std::printf("%s(LB <= achieved makespan on every row; the interval-excess bounds\n"
              " dominate the work bound at small m)\n\n",
              m.to_string().c_str());
}

void BM_SimContentionFree(benchmark::State& state) {
  WorkloadParams params;
  params.seed = 23;
  params.num_tasks = 40;
  params.laxity = 2.5;
  ProblemInstance inst = generate_workload(params);
  Capacities caps(inst.catalog->size(), 3);
  const ListScheduleResult sched = list_schedule_shared(*inst.app, caps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_shared(*inst.app, sched.schedule, caps));
  }
}
BENCHMARK(BM_SimContentionFree);

void BM_SimSingleBus(benchmark::State& state) {
  WorkloadParams params;
  params.seed = 23;
  params.num_tasks = 40;
  params.laxity = 2.5;
  ProblemInstance inst = generate_workload(params);
  Capacities caps(inst.catalog->size(), 3);
  const ListScheduleResult sched = list_schedule_shared(*inst.app, caps);
  SimOptions options;
  options.network_links = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_shared(*inst.app, sched.schedule, caps, options));
  }
}
BENCHMARK(BM_SimSingleBus);

void BM_MakespanBound(benchmark::State& state) {
  WorkloadParams params;
  params.seed = 9;
  params.num_tasks = static_cast<std::size_t>(state.range(0));
  params.num_proc_types = 1;
  params.num_resources = 0;
  params.msg_min = params.msg_max = 0;
  ProblemInstance inst = generate_workload(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(makespan_lower_bound(*inst.app, 4));
  }
}
BENCHMARK(BM_MakespanBound)->RangeMultiplier(2)->Range(16, 128);

}  // namespace

int main(int argc, char** argv) {
  lower_bound_engine_report();
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
