#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.hpp"
#include "src/core/analysis.hpp"
#include "src/core/lower_bound.hpp"
#include "src/core/overlap.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {
namespace {

class LowerBoundTest : public ::testing::Test {
 protected:
  LowerBoundTest() : app_(cat_) { p_ = cat_.add_processor_type("P", 1); }

  TaskId add(Time comp, Time rel, Time deadline, bool preemptive = false) {
    Task t;
    t.name = "t" + std::to_string(app_.num_tasks());
    t.comp = comp;
    t.release = rel;
    t.deadline = deadline;
    t.proc = p_;
    t.preemptive = preemptive;
    return app_.add_task(std::move(t));
  }

  ResourceBound bound(bool partitioned = true) {
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(app_, oracle);
    LowerBoundOptions opts;
    opts.use_partitioning = partitioned;
    return resource_lower_bound(app_, w, p_, opts);
  }

  ResourceCatalog cat_;
  Application app_;
  ResourceId p_;
};

TEST_F(LowerBoundTest, SingleTaskNeedsOneUnit) {
  add(3, 0, 10);
  const ResourceBound b = bound();
  EXPECT_EQ(b.bound, 1);
}

TEST_F(LowerBoundTest, UnusedResourceBoundsToZero) {
  const ResourceId unused = cat_.add_resource("unused");
  add(3, 0, 10);
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app_, oracle);
  EXPECT_EQ(resource_lower_bound(app_, w, unused).bound, 0);
}

TEST_F(LowerBoundTest, ParallelDeadlinesForceParallelUnits) {
  // Three tasks each filling [0, 4] completely: no single CPU can do 12
  // ticks of work in 4 ticks.
  add(4, 0, 4);
  add(4, 0, 4);
  add(4, 0, 4);
  const ResourceBound b = bound();
  EXPECT_EQ(b.bound, 3);
  EXPECT_EQ(b.witness_t1, 0);
  EXPECT_EQ(b.witness_t2, 4);
  EXPECT_EQ(b.witness_demand, 12);
}

TEST_F(LowerBoundTest, SlackAllowsSequencing) {
  // Same three tasks but with deadline 12: one CPU suffices and the density
  // never exceeds 1.
  add(4, 0, 12);
  add(4, 0, 12);
  add(4, 0, 12);
  EXPECT_EQ(bound().bound, 1);
}

TEST_F(LowerBoundTest, PreemptiveTasksCanDodgeNarrowIntervals) {
  // Windows [0, 12], C = 8 each, two tasks. Non-preemptive: any [4, 8]
  // placement overlaps [4, 8] by >= 4, demand 8 over width 4 -> bound 2.
  // Preemptive: both can split around the middle, and the peak density over
  // the whole window is 16/12 -> bound 2 as well... use distinct geometry:
  const TaskId a = add(8, 0, 12, /*preemptive=*/true);
  const TaskId b = add(8, 0, 12, /*preemptive=*/true);
  (void)a;
  (void)b;
  const ResourceBound pre = bound();
  EXPECT_EQ(pre.bound, 2);  // 16 ticks of work in a 12-tick window

  Application app2(cat_);
  Task t;
  t.comp = 8;
  t.release = 0;
  t.deadline = 12;
  t.proc = p_;
  t.preemptive = false;
  t.name = "x";
  app2.add_task(t);
  t.name = "y";
  app2.add_task(t);
  SharedMergeOracle oracle;
  const TaskWindows w2 = compute_windows(app2, oracle);
  const ResourceBound non = resource_lower_bound(app2, w2, p_);
  // Non-preemptive demand in any sub-interval is at least as large.
  EXPECT_GE(non.bound, pre.bound);
}

TEST_F(LowerBoundTest, PartitionedEqualsNaive) {
  add(4, 0, 4);
  add(3, 0, 9);
  add(5, 10, 18);
  add(2, 12, 15);
  add(6, 20, 30);
  const ResourceBound with = bound(true);
  const ResourceBound without = bound(false);
  EXPECT_EQ(with.bound, without.bound);
  EXPECT_TRUE(with.peak_density == without.peak_density);
  // Theorem 5's point: fewer intervals evaluated.
  EXPECT_LT(with.intervals_evaluated, without.intervals_evaluated);
}

TEST_F(LowerBoundTest, WitnessIntervalIsConsistent) {
  add(4, 0, 4);
  add(4, 0, 4);
  const ResourceBound b = bound();
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app_, oracle);
  const std::vector<TaskId> st = app_.tasks_using(p_);
  EXPECT_EQ(demand(app_, w, st, b.witness_t1, b.witness_t2), b.witness_demand);
  EXPECT_TRUE((Ratio{b.witness_demand, b.witness_t2 - b.witness_t1}) == b.peak_density);
  EXPECT_EQ(ceil_div(b.witness_demand, b.witness_t2 - b.witness_t1), b.bound);
}

TEST(LowerBoundTheorem5, PartitionedEqualsNaiveOnRandomWorkloads) {
  // Theorem 5 on generated workloads: per-block evaluation must give exactly
  // the same bound as scanning the whole range of ST_r.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.num_tasks = 24;
    params.laxity = 1.3 + 0.3 * static_cast<double>(seed % 4);
    params.release_spread = (seed % 2 == 0) ? 0.5 : 0.0;
    params.preemptive_prob = (seed % 3 == 0) ? 0.5 : 0.0;
    ProblemInstance inst = generate_workload(params);
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(*inst.app, oracle);
    for (ResourceId r : inst.app->resource_set()) {
      LowerBoundOptions part, naive;
      part.use_partitioning = true;
      naive.use_partitioning = false;
      const ResourceBound a = resource_lower_bound(*inst.app, w, r, part);
      const ResourceBound b = resource_lower_bound(*inst.app, w, r, naive);
      EXPECT_EQ(a.bound, b.bound) << "seed " << seed << " r " << r;
      EXPECT_TRUE(a.peak_density == b.peak_density) << "seed " << seed << " r " << r;
      EXPECT_LE(a.intervals_evaluated, b.intervals_evaluated);
    }
  }
}

TEST(LowerBoundOverSets, DensityBoundOverMatchesResourceBound) {
  // density_bound_over on exactly ST_r must reproduce resource_lower_bound.
  WorkloadParams params;
  params.seed = 41;
  params.num_tasks = 24;
  params.laxity = 1.4;
  ProblemInstance inst = generate_workload(params);
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(*inst.app, oracle);
  for (ResourceId r : inst.app->resource_set()) {
    const ResourceBound direct = resource_lower_bound(*inst.app, w, r);
    const ResourceBound over = density_bound_over(*inst.app, w, inst.app->tasks_using(r));
    EXPECT_EQ(direct.bound, over.bound);
    EXPECT_TRUE(direct.peak_density == over.peak_density);
  }
  // And on a subset it can only be <= (fewer contributors pointwise, though
  // candidate points shift, the empty-vs-full sanity holds):
  const ResourceId p = inst.catalog->find("P1");
  std::vector<TaskId> st = inst.app->tasks_using(p);
  ASSERT_GT(st.size(), 2u);
  st.resize(st.size() / 2);
  const ResourceBound half = density_bound_over(*inst.app, w, st);
  EXPECT_GE(half.bound, 0);
  EXPECT_EQ(density_bound_over(*inst.app, w, {}).bound, 0);
}

TEST(LowerBoundOverSets, DensityBoundOverEqualsUnpartitionedScanOfSubset) {
  // Theorem 5 on sets that are no resource's ST_r: the partitioned scan of
  // an arbitrary subset must find the peak density of scanning every
  // candidate pair of that subset as one block.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.num_tasks = 24;
    params.laxity = 1.3 + 0.3 * static_cast<double>(seed % 4);
    params.release_spread = (seed % 2 == 0) ? 0.5 : 0.0;
    params.preemptive_prob = (seed % 3 == 0) ? 0.5 : 0.0;
    ProblemInstance inst = generate_workload(params);
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(*inst.app, oracle);
    Rng rng(seed);
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<TaskId> subset;
      std::vector<Time> points;
      for (TaskId i = 0; i < inst.app->num_tasks(); ++i) {
        if (!rng.chance(0.5)) continue;
        subset.push_back(i);
        points.push_back(w.est[i]);
        points.push_back(w.lct[i]);
      }
      std::sort(points.begin(), points.end());
      points.erase(std::unique(points.begin(), points.end()), points.end());
      Ratio peak{0, 1};
      for (std::size_t a = 0; a < points.size(); ++a) {
        for (std::size_t b = a + 1; b < points.size(); ++b) {
          const Ratio density{demand(*inst.app, w, subset, points[a], points[b]),
                              points[b] - points[a]};
          if (density > peak) peak = density;
        }
      }
      for (bool prune : {false, true}) {
        LowerBoundOptions opts;
        opts.enable_pruning = prune;
        const ResourceBound over = density_bound_over(*inst.app, w, subset, opts);
        const std::string ctx = "seed " + std::to_string(seed) + " trial " +
                                std::to_string(trial) + " prune=" + std::to_string(prune);
        EXPECT_TRUE(over.peak_density == peak) << ctx;
        EXPECT_EQ(over.bound, peak.ceil()) << ctx;
        if (peak > Ratio{0, 1}) {
          EXPECT_EQ(demand(*inst.app, w, subset, over.witness_t1, over.witness_t2),
                    over.witness_demand) << ctx;
        }
      }
    }
  }
}

TEST(LowerBoundAnalysis, BoundNeverBelowWorkDensity) {
  // LB_r >= the single-interval work bound by construction (the work bound
  // is one of the candidate intervals).
  WorkloadParams params;
  params.seed = 77;
  params.num_tasks = 30;
  ProblemInstance inst = generate_workload(params);
  const AnalysisResult res = analyze(*inst.app);
  for (const ResourceBound& b : res.bounds) {
    const std::vector<TaskId> st = inst.app->tasks_using(b.resource);
    if (st.empty()) continue;
    Time work = 0, lo = kTimeMax, hi = kTimeMin;
    for (TaskId i : st) {
      work += inst.app->task(i).comp;
      lo = std::min(lo, res.windows.est[i]);
      hi = std::max(hi, res.windows.lct[i]);
    }
    EXPECT_GE(b.bound, ceil_div(work, hi - lo));
  }
}

TEST(RowSweep, EqualsDemandAtEveryCandidateOnRandomBlocks) {
  // The engine's per-row breakpoint sweep against the per-pair sum demand():
  // random blocks mixing preemptive and non-preemptive tasks, a third of the
  // windows narrower than C_i (where the ramp's cut at E_i is a jump), and
  // t1 anywhere over the block's span so that many tasks lie wholly left of
  // t1 (L_i <= t1), straddle it, or start past it.
  Rng rng(20261017);
  std::uint64_t compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ResourceCatalog cat;
    const ResourceId p = cat.add_processor_type("P", 1);
    Application app(cat);
    TaskWindows w;
    const int n = static_cast<int>(rng.uniform(1, 24));
    for (int i = 0; i < n; ++i) {
      Task t;
      t.name = "t" + std::to_string(i);
      t.comp = rng.uniform(1, 9);
      t.proc = p;
      t.preemptive = rng.chance(0.5);
      const Time e = rng.uniform(0, 40);
      const Time slack = rng.chance(1.0 / 3) ? -rng.uniform(1, t.comp) : rng.uniform(0, 12);
      t.release = e;
      t.deadline = e + t.comp + slack;
      w.est.push_back(e);
      w.lct.push_back(e + t.comp + slack);
      app.add_task(std::move(t));
    }
    const std::vector<TaskId> tasks = app.tasks_using(p);
    Time lo = kTimeMax;
    Time hi = kTimeMin;
    for (TaskId i : tasks) {
      lo = std::min(lo, w.est[i]);
      hi = std::max(hi, w.lct[i]);
    }
    for (int row = 0; row < 6; ++row) {
      // Two thirds of the rows start at a candidate point (as in the
      // engine), the rest anywhere in or just before the span.
      const TaskId pick = tasks[rng.index(tasks.size())];
      const Time t1 = row % 3 == 0   ? w.est[pick]
                      : row % 3 == 1 ? w.lct[pick]
                                     : rng.uniform(lo - 2, hi);
      const auto profile = row_demand(app, w, tasks, t1);
      for (const auto& [t2, theta] : profile) {
        ASSERT_GT(t2, t1);
        ASSERT_EQ(theta, demand(app, w, tasks, t1, t2))
            << "trial " << trial << " t1 " << t1 << " t2 " << t2;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

}  // namespace
}  // namespace rtlb
