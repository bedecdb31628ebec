// Fleet throughput: instances/second through run_fleet() -- the
// capacity-planning number for sizing a 10^5..10^6-instance differential
// run.
//
// Two rows are recorded:
//  (a) "cold": all oracles off, so each instance costs one
//      generate_workload + one baseline analyze. This is the pure pipeline
//      throughput ceiling.
//  (b) "cold+oracles": the full differential configuration the fleet smoke
//      and the committed 10^5 run use (serial + parallel + warm-session +
//      certificate round-trip + lint agreement), i.e. what a divergence hunt
//      actually costs per instance.
//
// Results go to BENCH_fleet.json with reps/hardware_concurrency/degraded
// recorded like BENCH_pipeline.json. No speedup-style headline is derived
// from a degraded row. RTLB_BENCH_REPS overrides the rep count (CI smoke
// sets 1; the measurement instance count is scaled down as well so the CI
// leg stays cheap while the schema stays intact).
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/fleet/runner.hpp"

using namespace rtlb;

namespace {

ScenarioSpec bench_spec(std::size_t instances_per_cell) {
  ScenarioSpec spec = ScenarioSpec::from_text(R"({
    "name": "bench",
    "seed": 61,
    "axes": {
      "shape": ["layered", "fork_join", "series_parallel"],
      "num_tasks": [16, 32],
      "laxity": [1.5, 3],
      "model": ["shared", "dedicated"]
    },
    "defaults": {"num_resources": 3, "resource_prob": 0.4}
  })");
  spec.instances_per_cell = instances_per_cell;
  return spec;
}

struct Row {
  const char* config;
  bool oracles;
};

void fleet_throughput_report() {
  const int reps = benchutil::rep_count(5);
  // Full reps measure 24 cells x 25 = 600 instances per rep; CI smoke
  // (reps == 1) scales down to 120 so the leg costs a couple of seconds.
  const std::size_t per_cell = reps > 1 ? 25 : 5;
  const ScenarioSpec spec = bench_spec(per_cell);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // One worker per hardware thread, never more: fleet throughput is a
  // capacity-planning number, so oversubscribed timings would be noise.
  const int threads = static_cast<int>(hw);
  const bool degraded = ThreadPool::resolve_threads(threads) > hw;  // never, by construction

  const Row rows[] = {
      {"cold", false},
      {"cold+oracles", true},
  };

  std::printf("== fleet throughput (%llu instances/rep, %d reps, %d workers) ==\n",
              static_cast<unsigned long long>(spec.total_instances()), reps, threads);
  Table t({"config", "oracles", "ms", "instances/sec"});
  Json entries = Json::array();
  for (const Row& row : rows) {
    FleetOptions opts;
    opts.threads = threads;
    if (!row.oracles) {
      opts.oracles.parallel = false;
      opts.oracles.session = false;
      opts.oracles.certificate = false;
      opts.oracles.lint = false;
    }
    std::uint64_t divergences = 0;
    const double ms = benchutil::time_ms(
        [&] { divergences += run_fleet(spec, opts).aggregates.divergences.size(); }, reps);
    const double per_sec =
        ms > 0 ? 1000.0 * static_cast<double>(spec.total_instances()) / ms : 0.0;
    char ms_s[32], ps_s[32];
    std::snprintf(ms_s, sizeof ms_s, "%.1f", ms);
    std::snprintf(ps_s, sizeof ps_s, "%.0f", per_sec);
    t.add(row.config, row.oracles ? "all" : "off", ms_s, ps_s);

    Json entry = Json::object();
    entry.set("config", row.config)
        .set("oracles", row.oracles ? "all" : "off")
        .set("ms", ms)
        .set("instances_per_sec", per_sec)
        .set("divergences", static_cast<std::int64_t>(divergences));
    entries.push(std::move(entry));
  }
  std::printf("%s(best-of-%d wall time per config; the aggregate bytes are\n"
              " thread-count independent -- tests/test_fleet.cpp pins that)\n",
              t.to_string().c_str(), reps);
  benchutil::export_csv(t, "fleet_throughput");

  Json root = Json::object();
  root.set("bench", "bench_fleet throughput: instances/sec, oracles off and on")
      .set("spec", spec.to_json())
      .set("instances_per_run", static_cast<std::int64_t>(spec.total_instances()))
      .set("threads", threads)
      .set("reps", static_cast<std::int64_t>(reps))
      .set("hardware_concurrency", static_cast<std::int64_t>(hw))
      .set("degraded", degraded)
      .set("configs", std::move(entries));
  benchutil::export_json(root, "BENCH_fleet");
}

}  // namespace

int main() {
  fleet_throughput_report();
  return 0;
}
