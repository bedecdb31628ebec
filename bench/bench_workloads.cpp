// Workload front-door benchmarks: what does recurrence COST, and what does
// the paper's bound BUY on lowered periodic/sporadic instances?
//
// Three sections, recorded to BENCH_workloads.json:
//  (a) lowering cost -- lower_workload() wall time for generated periodic
//      and sporadic template sets at growing task counts. Lowering is a
//      straight unroll; the section pins that it stays negligible next to
//      the analysis itself.
//  (b) analysis cost vs hyperperiod -- one fixed template pair whose slow
//      transaction's period doubles per row, doubling the hyperperiod and
//      hence the number of lowered activations. The paper's partitioning
//      keeps the growth near-linear: every activation slot becomes its own
//      partition block (Theorem 5), so the scans never cross slots.
//  (c) resource-LB vs long-paths tightness -- the head-to-head behind the
//      EXPERIMENTS.md table: the Alqadi-Ramanathan LB_P (a NECESSARY
//      processor count, computed from the lowered per-activation windows)
//      against He et al.'s long-paths sufficiency (arXiv 2307.13401; the
//      smallest m whose response-time bound meets the latest lowered
//      deadline). Models are aligned the way the path literature assumes:
//      one processor type, no extra resources, zero-size messages. The
//      tightness column is necessity/sufficiency in permille -- 1000 means
//      the sandwich is closed and the true requirement is pinned exactly.
//
// RTLB_BENCH_REPS overrides the rep count (CI smoke sets 1); the grid shape
// is rep-independent so the committed JSON's key paths stay stable.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "src/baselines/long_paths.hpp"
#include "src/core/analysis.hpp"
#include "src/workload/taskset_gen.hpp"
#include "src/workload/workload.hpp"

using namespace rtlb;

namespace {

const char* kind_name(ReleaseKind kind) {
  return kind == ReleaseKind::kSporadic ? "sporadic" : "periodic";
}

// ---------------------------------------------------------------- section a

Json lowering_cost(int reps) {
  std::printf("== lowering cost (best of %d) ==\n", reps);
  Table t({"kind", "num_tasks", "templates", "lowered", "ms"});
  Json rows = Json::array();
  for (const ReleaseKind kind : {ReleaseKind::kPeriodic, ReleaseKind::kSporadic}) {
    for (const std::size_t n : {16, 32, 64}) {
      WorkloadParams params;
      params.seed = 29 + n;
      params.num_tasks = n;
      ProblemInstance inst = generate_recurrent_instance(params, kind);
      std::size_t lowered = 0;
      const double ms = benchutil::time_ms(
          [&] { lowered = lower_workload(*inst.catalog, inst.workload).num_tasks(); },
          reps);
      char ms_s[32];
      std::snprintf(ms_s, sizeof ms_s, "%.3f", ms);
      t.add(kind_name(kind), std::to_string(n),
            std::to_string(inst.workload.transactions.size()), std::to_string(lowered),
            ms_s);
      Json row = Json::object();
      row.set("kind", kind_name(kind))
          .set("num_tasks", static_cast<std::int64_t>(n))
          .set("transactions", static_cast<std::int64_t>(inst.workload.transactions.size()))
          .set("lowered_tasks", static_cast<std::int64_t>(lowered))
          .set("ms", ms);
      rows.push(std::move(row));
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  benchutil::export_csv(t, "workload_lowering");
  return rows;
}

// ---------------------------------------------------------------- section b

Json analysis_vs_hyperperiod(int reps) {
  std::printf("== analysis cost vs hyperperiod (best of %d) ==\n", reps);
  Table t({"hyperperiod", "lowered", "analyze_ms", "lower_ms"});
  Json rows = Json::array();
  ResourceCatalog cat;
  const ResourceId cpu = cat.add_processor_type("CPU", 10);
  const ResourceId dsp = cat.add_processor_type("DSP", 25);

  const auto make_task = [](const char* name, Time comp, ResourceId proc) {
    TemplateTask t;
    t.name = name;
    t.comp = comp;
    t.proc = proc;
    return t;
  };
  for (int doubling = 0; doubling <= 3; ++doubling) {
    Workload w;
    Transaction fast;
    fast.name = "fast";
    fast.period = 24;
    fast.tasks = {make_task("sense", 3, cpu), make_task("filter", 5, dsp),
                  make_task("act", 2, cpu)};
    fast.edges = {{0, 1, 2}, {1, 2, 1}};
    Transaction slow;
    slow.name = "slow";
    slow.period = 24 << doubling;  // doubles the shared hyperperiod per row
    slow.tasks = {make_task("plan", 7, dsp), make_task("log", 2, cpu)};
    slow.edges = {{0, 1, 3}};
    w.transactions = {fast, slow};

    const double lower_ms =
        benchutil::time_ms([&] { (void)lower_workload(cat, w); }, reps);
    const Application app = lower_workload(cat, w);
    const double analyze_ms = benchutil::time_ms([&] { (void)analyze(app); }, reps);

    char a_s[32], l_s[32];
    std::snprintf(a_s, sizeof a_s, "%.3f", analyze_ms);
    std::snprintf(l_s, sizeof l_s, "%.3f", lower_ms);
    t.add(std::to_string(hyperperiod(w.transactions)), std::to_string(app.num_tasks()),
          a_s, l_s);
    Json row = Json::object();
    row.set("hyperperiod", static_cast<std::int64_t>(hyperperiod(w.transactions)))
        .set("lowered_tasks", static_cast<std::int64_t>(app.num_tasks()))
        .set("analyze_ms", analyze_ms)
        .set("lower_ms", lower_ms);
    rows.push(std::move(row));
  }
  std::printf("%s(per-slot partition blocks keep the growth near-linear)\n\n",
              t.to_string().c_str());
  benchutil::export_csv(t, "workload_hyperperiod");
  return rows;
}

// ---------------------------------------------------------------- section c

Json tightness(int /*reps*/) {
  std::printf("== resource-LB necessity vs long-paths sufficiency ==\n");
  Table t({"kind", "num_tasks", "LB_P (mean)", "suff (mean)", "tightness permille"});
  Json rows = Json::array();
  constexpr std::uint64_t kSeeds = 8;
  for (const ReleaseKind kind : {ReleaseKind::kPeriodic, ReleaseKind::kSporadic}) {
    for (const std::size_t n : {16, 32}) {
      std::int64_t lb_sum = 0;
      std::int64_t suff_sum = 0;
      std::int64_t permille_sum = 0;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        WorkloadParams params;
        params.seed = seed * 23;
        params.num_tasks = n;
        params.num_proc_types = 1;
        params.num_resources = 0;
        params.msg_min = params.msg_max = 0;  // the path-literature model
        params.laxity = 1.5;
        ProblemInstance inst = generate_recurrent_instance(params, kind);
        const AnalysisResult res = analyze(*inst.app);
        const std::int64_t lb = res.bound_for(inst.catalog->find("P1")).value_or(0);

        Time latest = 0;
        for (TaskId i = 0; i < inst.app->num_tasks(); ++i) {
          latest = std::max(latest, inst.app->task(i).deadline);
        }
        const LongPathsDecomposition d = long_paths_decompose(*inst.app);
        const int suff = long_paths_min_processors(d, latest);

        lb_sum += lb;
        suff_sum += suff;
        permille_sum += suff > 0 ? 1000 * lb / suff : 0;
      }
      const std::int64_t permille = permille_sum / static_cast<std::int64_t>(kSeeds);
      char lb_s[32], sf_s[32];
      std::snprintf(lb_s, sizeof lb_s, "%.2f",
                    static_cast<double>(lb_sum) / static_cast<double>(kSeeds));
      std::snprintf(sf_s, sizeof sf_s, "%.2f",
                    static_cast<double>(suff_sum) / static_cast<double>(kSeeds));
      t.add(kind_name(kind), std::to_string(n), lb_s, sf_s, std::to_string(permille));
      Json row = Json::object();
      row.set("kind", kind_name(kind))
          .set("num_tasks", static_cast<std::int64_t>(n))
          .set("seeds", static_cast<std::int64_t>(kSeeds))
          .set("lb_mean", static_cast<double>(lb_sum) / static_cast<double>(kSeeds))
          .set("sufficient_mean", static_cast<double>(suff_sum) / static_cast<double>(kSeeds))
          .set("tightness_permille", permille);
      rows.push(std::move(row));
    }
  }
  std::printf("%s(1000 permille = the necessary and sufficient counts meet: the\n"
              " sandwich pins the true processor requirement exactly)\n\n",
              t.to_string().c_str());
  benchutil::export_csv(t, "workload_tightness");
  return rows;
}

}  // namespace

int main() {
  const int reps = benchutil::rep_count(5);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  Json root = Json::object();
  root.set("bench",
           "bench_workloads: lowering cost, analysis vs hyperperiod, LB vs long-paths")
      .set("reps", static_cast<std::int64_t>(reps))
      .set("hardware_concurrency", static_cast<std::int64_t>(hw))
      .set("degraded", false)  // single-threaded measurements throughout
      .set("lowering", lowering_cost(reps))
      .set("analysis_vs_hyperperiod", analysis_vs_hyperperiod(reps))
      .set("tightness", tightness(reps));
  benchutil::export_json(root, "BENCH_workloads");
  return 0;
}
