// Cold-vs-warm cost of repeated-query analysis through AnalysisSession.
//
// Three sweep workloads, each timed twice -- once as the pre-session
// workflow (copy the application, apply the delta, cold analyze()) and once
// through one memoized session:
//  (a) delta sweep: perturb ONE task's deadline per query on a many-block
//      workload -- the synthesis/annealing inner-loop shape. Only the
//      touched block is rescanned; every other block replays from the
//      cache. This is the headline speedup recorded as "speedup".
//  (b) deadline laxity sweep: every deadline scales per point, so the warm
//      path mostly measures the session's overhead on global invalidation
//      (factor pairs that clip/saturate to identical windows still hit).
//  (c) menu sweep: price variants of the node menu under the dedicated
//      model -- windows/partitions/scans are platform-independent here, so
//      the session re-solves only the covering ILP per variant.
// Results go to BENCH_session.json (benchutil::export_json) with
// reps/hardware_concurrency/degraded recorded like BENCH_fleet.json; every
// timing is best-of-reps. RTLB_BENCH_REPS overrides the rep count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "src/core/report.hpp"
#include "src/core/sensitivity.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/session.hpp"
#include "src/workload/taskset_gen.hpp"

using namespace rtlb;

namespace {

/// The delta-sweep instance: `groups` independent clusters of `per_group`
/// tasks, each cluster on its own processor type with overlapping windows.
/// Every cluster is one partition block, so a single-task delta invalidates
/// exactly one of `groups` blocks.
struct DeltaWorkload {
  std::unique_ptr<ResourceCatalog> catalog;
  std::unique_ptr<Application> app;
};

DeltaWorkload make_delta_workload(std::size_t groups, std::size_t per_group) {
  DeltaWorkload w;
  w.catalog = std::make_unique<ResourceCatalog>();
  std::vector<ResourceId> procs;
  for (std::size_t g = 0; g < groups; ++g) {
    procs.push_back(w.catalog->add_processor_type("P" + std::to_string(g), 3));
  }
  w.app = std::make_unique<Application>(*w.catalog);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t k = 0; k < per_group; ++k) {
      Task t;
      t.name = "g" + std::to_string(g) + "t" + std::to_string(k);
      t.comp = 3 + static_cast<Time>(k % 5);
      t.release = static_cast<Time>(2 * k);
      t.deadline = t.release + 40 + static_cast<Time>(3 * (k % 7));
      t.proc = procs[g];
      w.app->add_task(std::move(t));
    }
  }
  return w;
}

struct SweepTiming {
  double cold_ms = 0;
  double warm_ms = 0;
  double speedup() const { return warm_ms > 0 ? cold_ms / warm_ms : 0; }
};

/// (a) One-task-deadline deltas: what synthesis and annealing inner loops
/// look like between candidate evaluations.
SweepTiming time_delta_sweep(const Application& base, int queries, int reps,
                             SessionStats* stats) {
  SweepTiming timing;
  // `tick` keeps advancing across time_ms reps (and 24 % 5 != 0), so a task
  // revisited in a later rep gets a DIFFERENT deadline -- every query is a
  // real delta, never a no-op the session could answer as a pure query hit.
  auto deadline_at = [&](int q, int tick) {
    const TaskId t = static_cast<TaskId>((q * 7) % base.num_tasks());
    return std::pair<TaskId, Time>(t, base.task(t).deadline + 1 + (tick % 5));
  };

  int cold_tick = 0;
  timing.cold_ms = benchutil::time_ms([&] {
    for (int q = 0; q < queries; ++q) {
      Application scaled = base;  // the pre-session workflow copies + reanalyzes
      const auto [t, d] = deadline_at(q, cold_tick++);
      scaled.task(t).deadline = d;
      benchmark::DoNotOptimize(analyze(scaled));
    }
  }, reps);

  AnalysisSession session(base);
  session.set_verify(false);  // timing run; correctness is ctest's job
  int warm_tick = 0;
  timing.warm_ms = benchutil::time_ms([&] {
    for (int q = 0; q < queries; ++q) {
      const auto [t, d] = deadline_at(q, warm_tick++);
      session.set_deadline(t, d);
      benchmark::DoNotOptimize(session.analyze());
    }
  });
  if (stats != nullptr) *stats = session.stats();
  return timing;
}

/// (b) The global laxity sweep (every deadline rescaled per point).
SweepTiming time_laxity_sweep(const Application& base, const std::vector<double>& factors,
                              int reps) {
  SweepTiming timing;
  timing.cold_ms = benchutil::time_ms([&] {
    for (double factor : factors) {
      Application scaled = base;
      for (TaskId i = 0; i < base.num_tasks(); ++i) {
        const Task& t = base.task(i);
        Time window = scale_time(factor, t.deadline - t.release);
        if (window < t.comp) window = t.comp;
        scaled.task(i).deadline = t.release + window;
      }
      benchmark::DoNotOptimize(analyze(scaled));
    }
  }, reps);
  timing.warm_ms = benchutil::time_ms(
      [&] { benchmark::DoNotOptimize(deadline_laxity_sweep(base, factors)); }, reps);
  return timing;
}

/// (c) Menu variants under the dedicated model: only the ILP differs when
/// the merge behaviour of the menus coincides.
SweepTiming time_menu_sweep(const Application& app,
                            const std::vector<std::pair<std::string, DedicatedPlatform>>& menus,
                            int reps) {
  SweepTiming timing;
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  timing.cold_ms = benchutil::time_ms([&] {
    for (const auto& [name, platform] : menus) {
      benchmark::DoNotOptimize(analyze(app, options, &platform));
    }
  }, reps);
  timing.warm_ms =
      benchutil::time_ms([&] { benchmark::DoNotOptimize(menu_variants(app, menus)); }, reps);
  return timing;
}

void run_report() {
  const std::size_t kGroups = 10;
  const std::size_t kPerGroup = 72;
  const int kQueries = 24;
  const int reps = benchutil::rep_count(3);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Every sweep runs with the default one worker (LowerBoundOptions).
  const bool degraded = ThreadPool::resolve_threads(1) > hw;  // never, by construction
  DeltaWorkload delta = make_delta_workload(kGroups, kPerGroup);

  SessionStats delta_stats;
  const SweepTiming delta_t = time_delta_sweep(*delta.app, kQueries, reps, &delta_stats);

  WorkloadParams params;
  params.seed = 61;
  params.num_tasks = 48;
  params.laxity = 1.2;
  ProblemInstance inst = generate_workload(params);
  std::vector<double> factors;
  for (int k = 0; k < 16; ++k) factors.push_back(1.0 + 0.15 * k);
  const SweepTiming laxity_t = time_laxity_sweep(*inst.app, factors, reps);

  // Cost-variant menus: identical node shapes (same merge oracle answers),
  // different prices -- the "reprice the catalog" design loop.
  std::vector<std::pair<std::string, DedicatedPlatform>> menus;
  for (int v = 0; v < 8; ++v) {
    DedicatedPlatform m;
    for (std::size_t n = 0; n < inst.platform.num_node_types(); ++n) {
      NodeType node = inst.platform.node_type(n);
      node.cost += v * static_cast<Cost>(n + 1);
      m.add_node_type(node);
    }
    menus.emplace_back("reprice-" + std::to_string(v), m);
  }
  const SweepTiming menu_t = time_menu_sweep(*inst.app, menus, reps);

  Table t({"sweep", "queries", "cold ms", "warm ms", "speedup"});
  auto add_row = [&](const char* name, std::size_t queries, const SweepTiming& s) {
    char cold[32], warm[32], speed[32];
    std::snprintf(cold, sizeof cold, "%.2f", s.cold_ms);
    std::snprintf(warm, sizeof warm, "%.2f", s.warm_ms);
    std::snprintf(speed, sizeof speed, "%.1fx", s.speedup());
    t.add(name, queries, cold, warm, speed);
  };
  add_row("single-task deadline deltas", static_cast<std::size_t>(kQueries), delta_t);
  add_row("global laxity factors", factors.size(), laxity_t);
  add_row("menu reprice variants", menus.size(), menu_t);
  std::printf("== cold analyze() vs memoized AnalysisSession ==\n%s\n", t.to_string().c_str());
  std::printf("delta-sweep session stats: %s\n\n",
              session_stats_json(delta_stats).dump(0).c_str());

  Json root = Json::object();
  Json workload = Json::object();
  workload.set("groups", static_cast<std::int64_t>(kGroups))
      .set("tasks_per_group", static_cast<std::int64_t>(kPerGroup))
      .set("queries", static_cast<std::int64_t>(kQueries));
  root.set("workload", std::move(workload));
  auto sweep_json = [](const SweepTiming& s) {
    Json j = Json::object();
    j.set("cold_ms", s.cold_ms).set("warm_ms", s.warm_ms).set("speedup", s.speedup());
    return j;
  };
  root.set("delta_sweep", sweep_json(delta_t));
  root.set("laxity_sweep", sweep_json(laxity_t));
  root.set("menu_sweep", sweep_json(menu_t));
  root.set("speedup", delta_t.speedup());
  root.set("session_stats", session_stats_json(delta_stats));
  root.set("reps", static_cast<std::int64_t>(reps))
      .set("hardware_concurrency", static_cast<std::int64_t>(hw))
      .set("degraded", degraded);
  benchutil::export_json(root, "BENCH_session");
}

void BM_ColdDeltaQuery(benchmark::State& state) {
  DeltaWorkload w = make_delta_workload(10, static_cast<std::size_t>(state.range(0)));
  int q = 0;
  for (auto _ : state) {
    Application scaled = *w.app;
    scaled.task(static_cast<TaskId>(q++ * 7 % scaled.num_tasks())).deadline += 1;
    benchmark::DoNotOptimize(analyze(scaled));
  }
}
BENCHMARK(BM_ColdDeltaQuery)->RangeMultiplier(2)->Range(8, 32);

void BM_WarmDeltaQuery(benchmark::State& state) {
  DeltaWorkload w = make_delta_workload(10, static_cast<std::size_t>(state.range(0)));
  AnalysisSession session(*w.app);
  session.set_verify(false);
  int q = 0;
  for (auto _ : state) {
    // Task cycle length is 10 * range; % 3 is co-prime with it, so every
    // revisit moves the deadline -- no query resolves as a pure no-op hit.
    const TaskId t = static_cast<TaskId>(q * 7 % w.app->num_tasks());
    session.set_deadline(t, w.app->task(t).deadline + 1 + (q % 3));
    ++q;
    benchmark::DoNotOptimize(session.analyze());
  }
}
BENCHMARK(BM_WarmDeltaQuery)->RangeMultiplier(2)->Range(8, 32);

}  // namespace

int main(int argc, char** argv) {
  run_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
