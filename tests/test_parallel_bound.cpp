// The parallel pruned bound engine against the serial engine: bit-identical
// ResourceBound results at any thread count, result-identical (and cheaper)
// with pruning, witness always consistent with the reported peak, and exact
// arithmetic on near-kTimeMax windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>

#include "src/common/thread_pool.hpp"
#include "src/core/analysis.hpp"
#include "src/core/lower_bound.hpp"
#include "src/core/overlap.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {
namespace {

void expect_bitwise_equal(const ResourceBound& a, const ResourceBound& b,
                          const std::string& context) {
  EXPECT_EQ(a.resource, b.resource) << context;
  EXPECT_EQ(a.bound, b.bound) << context;
  EXPECT_EQ(a.peak_density.num, b.peak_density.num) << context;
  EXPECT_EQ(a.peak_density.den, b.peak_density.den) << context;
  EXPECT_EQ(a.witness_t1, b.witness_t1) << context;
  EXPECT_EQ(a.witness_t2, b.witness_t2) << context;
  EXPECT_EQ(a.witness_demand, b.witness_demand) << context;
  EXPECT_EQ(a.intervals_evaluated, b.intervals_evaluated) << context;
}

/// A positive-peak bound must carry a witness interval whose recomputed
/// demand and density agree exactly with the reported values.
void expect_valid_witness(const Application& app, const TaskWindows& w,
                          const ResourceBound& b, const std::string& context) {
  if (!(b.peak_density > Ratio{0, 1})) return;
  ASSERT_LT(b.witness_t1, b.witness_t2) << context;
  const std::vector<TaskId> st = app.tasks_using(b.resource);
  EXPECT_EQ(demand(app, w, st, b.witness_t1, b.witness_t2), b.witness_demand) << context;
  EXPECT_TRUE((Ratio{b.witness_demand, b.witness_t2 - b.witness_t1}) == b.peak_density)
      << context;
  EXPECT_EQ(ceil_div(b.witness_demand, b.witness_t2 - b.witness_t1), b.bound) << context;
}

WorkloadParams params_for(std::uint64_t seed) {
  WorkloadParams params;
  params.seed = seed;
  params.num_tasks = 40;
  params.laxity = 1.3 + 0.3 * static_cast<double>(seed % 4);
  params.release_spread = (seed % 2 == 0) ? 0.6 : 0.0;
  params.preemptive_prob = (seed % 3 == 0) ? 0.5 : 0.0;
  params.resource_prob = 0.5;
  return params;
}

TEST(ParallelBound, BitIdenticalToSerialOnRandomSharedWorkloads) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ProblemInstance inst = generate_workload(params_for(seed));
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(*inst.app, oracle);
    for (bool partition : {true, false}) {
      for (bool prune : {false, true}) {
        LowerBoundOptions serial, parallel;
        serial.use_partitioning = parallel.use_partitioning = partition;
        serial.enable_pruning = parallel.enable_pruning = prune;
        serial.num_threads = 1;
        parallel.num_threads = 4;
        const std::string ctx = "seed " + std::to_string(seed) +
                                " partition=" + std::to_string(partition) +
                                " prune=" + std::to_string(prune);
        const auto a = all_resource_bounds(*inst.app, w, serial);
        const auto b = all_resource_bounds(*inst.app, w, parallel);
        ASSERT_EQ(a.size(), b.size()) << ctx;
        for (std::size_t k = 0; k < a.size(); ++k) {
          expect_bitwise_equal(a[k], b[k], ctx);
          expect_valid_witness(*inst.app, w, a[k], ctx);
        }
      }
    }
  }
}

TEST(ParallelBound, BitIdenticalToSerialOnRandomDedicatedWorkloads) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ProblemInstance inst = generate_workload(params_for(seed));
    if (inst.platform.num_node_types() == 0) continue;
    AnalysisOptions serial, parallel;
    serial.model = parallel.model = SystemModel::Dedicated;
    serial.lower_bound.num_threads = 1;
    parallel.lower_bound.num_threads = 4;
    serial.lower_bound.enable_pruning = parallel.lower_bound.enable_pruning = true;
    const AnalysisResult a = analyze(*inst.app, serial, &inst.platform);
    const AnalysisResult b = analyze(*inst.app, parallel, &inst.platform);
    ASSERT_EQ(a.bounds.size(), b.bounds.size());
    const std::string ctx = "dedicated seed " + std::to_string(seed);
    for (std::size_t k = 0; k < a.bounds.size(); ++k) {
      expect_bitwise_equal(a.bounds[k], b.bounds[k], ctx);
      expect_valid_witness(*inst.app, a.windows, a.bounds[k], ctx);
    }
  }
}

TEST(ParallelBound, PruningKeepsResultsAndNeverEvaluatesMore) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ProblemInstance inst = generate_workload(params_for(seed));
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(*inst.app, oracle);
    for (ResourceId r : inst.app->resource_set()) {
      LowerBoundOptions plain, pruned;
      pruned.enable_pruning = true;
      const ResourceBound a = resource_lower_bound(*inst.app, w, r, plain);
      const ResourceBound b = resource_lower_bound(*inst.app, w, r, pruned);
      EXPECT_EQ(a.bound, b.bound) << "seed " << seed;
      EXPECT_TRUE(a.peak_density == b.peak_density) << "seed " << seed;
      // The pruned witness may name a different interval on an exact density
      // tie (the probe pass records its own witnesses) but must always be
      // valid -- its recomputed density equals the shared peak.
      expect_valid_witness(*inst.app, w, b, "pruned seed " + std::to_string(seed));
      // Probe work is bounded by one pair per task; the scan itself only
      // ever skips pairs the unpruned engine evaluates.
      const std::uint64_t probe_budget = inst.app->tasks_using(r).size();
      EXPECT_LE(b.intervals_evaluated, a.intervals_evaluated + probe_budget)
          << "seed " << seed;
    }
  }
}

TEST(ParallelBound, BlockCacheReplaysTheUncachedEngine) {
  // all_resource_bounds through a BlockScanCache equals the uncached call on
  // a cold cache (every block a miss), on a repeat (every block a hit), and
  // on a second application that shares only some blocks.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ProblemInstance inst = generate_workload(params_for(seed));
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(*inst.app, oracle);
    const std::vector<ResourcePartition> parts = partition_all(*inst.app, w);
    // Flipping one task's preemptive flag leaves every window (and so every
    // partition) as it is and changes only the blocks holding that task.
    const TaskId victim = parts.front().blocks.front().tasks.front();
    Application other = *inst.app;
    other.task(victim).preemptive = !other.task(victim).preemptive;
    std::uint64_t blocks = 0;
    std::uint64_t untouched = 0;
    for (const ResourcePartition& p : parts) {
      for (const PartitionBlock& b : p.blocks) {
        ++blocks;
        untouched += std::find(b.tasks.begin(), b.tasks.end(), victim) == b.tasks.end();
      }
    }
    ASSERT_GT(untouched, 0u);
    for (bool prune : {false, true}) {
      for (int threads : {1, 4}) {
        LowerBoundOptions opts;
        opts.enable_pruning = prune;
        opts.num_threads = threads;
        const std::string ctx = "seed " + std::to_string(seed) +
                                " prune=" + std::to_string(prune) +
                                " threads=" + std::to_string(threads);
        const auto expect_same = [&](const std::vector<ResourceBound>& a,
                                     const std::vector<ResourceBound>& b) {
          ASSERT_EQ(a.size(), b.size()) << ctx;
          for (std::size_t k = 0; k < a.size(); ++k) expect_bitwise_equal(a[k], b[k], ctx);
        };
        BlockScanCache cache;
        const auto cold = all_resource_bounds(*inst.app, w, opts);
        expect_same(all_resource_bounds(*inst.app, w, parts, opts, &cache), cold);
        EXPECT_EQ(cache.hits(), 0u) << ctx;
        EXPECT_EQ(cache.misses(), blocks) << ctx;
        expect_same(all_resource_bounds(*inst.app, w, parts, opts, &cache), cold);
        EXPECT_EQ(cache.hits(), blocks) << ctx;
        EXPECT_EQ(cache.misses(), blocks) << ctx;
        expect_same(all_resource_bounds(other, w, parts, opts, &cache),
                    all_resource_bounds(other, w, opts));
        EXPECT_GE(cache.hits(), blocks + untouched) << ctx;
        EXPECT_LT(cache.hits(), 2 * blocks) << ctx;
        EXPECT_EQ(cache.hits() + cache.misses(), 3 * blocks) << ctx;
      }
    }
  }
}

TEST(ParallelBound, AutoThreadCountMatchesSerial) {
  ProblemInstance inst = generate_workload(params_for(5));
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(*inst.app, oracle);
  LowerBoundOptions serial, automatic;
  automatic.num_threads = 0;  // one per hardware thread
  const auto a = all_resource_bounds(*inst.app, w, serial);
  const auto b = all_resource_bounds(*inst.app, w, automatic);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) expect_bitwise_equal(a[k], b[k], "auto");
}

TEST(ParallelBound, DensityBoundOverMatchesAcrossEngines) {
  ProblemInstance inst = generate_workload(params_for(7));
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(*inst.app, oracle);
  for (ResourceId r : inst.app->resource_set()) {
    LowerBoundOptions parallel_pruned;
    parallel_pruned.num_threads = 4;
    parallel_pruned.enable_pruning = true;
    const ResourceBound direct = resource_lower_bound(*inst.app, w, r);
    const ResourceBound over =
        density_bound_over(*inst.app, w, inst.app->tasks_using(r), parallel_pruned);
    EXPECT_EQ(direct.bound, over.bound);
    EXPECT_TRUE(direct.peak_density == over.peak_density);
  }
}

/// One engine result pinned before the scan rows moved to the breakpoint
/// sweep: {seed, use_partitioning, enable_pruning, resource, bound, peak
/// num, peak den, witness t1, witness t2, witness demand,
/// intervals_evaluated}.
struct PinnedBound {
  std::uint64_t seed;
  int partition;
  int prune;
  int resource;
  std::int64_t bound;
  std::int64_t num;
  std::int64_t den;
  Time t1;
  Time t2;
  Time demand;
  std::uint64_t evaluated;
};

// clang-format off
constexpr PinnedBound kPinnedBounds[] = {
      {1, 1, 0, 0, 4, 40, 11, 0, 11, 40, 435},
      {1, 1, 0, 1, 4, 50, 13, 0, 13, 50, 351},
      {1, 1, 0, 2, 4, 49, 13, 0, 13, 49, 496},
      {1, 1, 0, 3, 4, 49, 13, 0, 13, 49, 378},
      {1, 1, 1, 0, 4, 40, 11, 0, 11, 40, 327},
      {1, 1, 1, 1, 4, 50, 13, 0, 13, 50, 266},
      {1, 1, 1, 2, 4, 49, 13, 0, 13, 49, 401},
      {1, 1, 1, 3, 4, 49, 13, 0, 13, 49, 274},
      {2, 1, 0, 0, 1, 108, 115, 9, 124, 108, 703},
      {2, 1, 0, 1, 1, 82, 97, 11, 108, 82, 666},
      {2, 1, 0, 2, 1, 73, 96, 9, 105, 73, 528},
      {2, 1, 0, 3, 2, 141, 129, 14, 143, 141, 1081},
      {2, 1, 1, 0, 1, 108, 115, 9, 124, 108, 724},
      {2, 1, 1, 1, 1, 82, 97, 11, 108, 82, 687},
      {2, 1, 1, 2, 1, 73, 96, 9, 105, 73, 545},
      {2, 1, 1, 3, 2, 141, 129, 14, 143, 141, 1111},
      {2, 0, 0, 0, 1, 108, 115, 9, 124, 108, 703},
      {2, 0, 0, 1, 1, 82, 97, 11, 108, 82, 666},
      {2, 0, 0, 2, 1, 73, 96, 9, 105, 73, 528},
      {2, 0, 0, 3, 2, 141, 129, 14, 143, 141, 1081},
      {2, 0, 1, 0, 1, 108, 115, 9, 124, 108, 724},
      {2, 0, 1, 1, 1, 82, 97, 11, 108, 82, 687},
      {2, 0, 1, 2, 1, 73, 96, 9, 105, 73, 545},
      {2, 0, 1, 3, 2, 141, 129, 14, 143, 141, 1111},
      {3, 1, 0, 0, 2, 20, 15, 0, 15, 20, 703},
      {3, 1, 0, 1, 2, 98, 86, 0, 86, 98, 378},
      {3, 1, 0, 2, 1, 51, 66, 0, 66, 51, 351},
      {3, 1, 0, 3, 2, 115, 86, 0, 86, 115, 780},
      {3, 1, 1, 0, 2, 20, 15, 0, 15, 20, 718},
      {3, 1, 1, 1, 2, 98, 86, 0, 86, 98, 395},
      {3, 1, 1, 2, 1, 51, 66, 0, 66, 51, 364},
      {3, 1, 1, 3, 2, 115, 86, 0, 86, 115, 803},
      {4, 1, 0, 0, 3, 24, 10, 2, 12, 24, 703},
      {4, 1, 0, 1, 2, 88, 54, 44, 98, 88, 741},
      {4, 1, 0, 2, 2, 19, 11, 2, 13, 19, 496},
      {4, 1, 0, 3, 2, 107, 60, 26, 86, 107, 780},
      {4, 1, 1, 0, 3, 24, 10, 2, 12, 24, 658},
      {4, 1, 1, 1, 2, 88, 54, 44, 98, 88, 764},
      {4, 1, 1, 2, 2, 19, 11, 2, 13, 19, 487},
      {4, 1, 1, 3, 2, 107, 60, 26, 86, 107, 801},
      {5, 1, 0, 0, 2, 16, 8, 0, 8, 16, 496},
      {5, 1, 0, 1, 3, 27, 13, 0, 13, 27, 561},
      {5, 1, 0, 2, 2, 62, 45, 0, 45, 62, 435},
      {5, 1, 0, 3, 3, 23, 8, 0, 8, 23, 666},
      {5, 1, 1, 0, 2, 20, 10, 0, 10, 20, 488},
      {5, 1, 1, 1, 3, 27, 13, 0, 13, 27, 498},
      {5, 1, 1, 2, 2, 62, 45, 0, 45, 62, 426},
      {5, 1, 1, 3, 3, 23, 8, 0, 8, 23, 601},
      {6, 1, 0, 0, 6, 6, 1, 27, 28, 6, 741},
      {6, 1, 0, 1, 6, 6, 1, 46, 47, 6, 630},
      {6, 1, 0, 2, 6, 6, 1, 17, 18, 6, 630},
      {6, 1, 0, 3, 12, 12, 1, 46, 47, 12, 418},
      {6, 1, 1, 0, 6, 6, 1, 27, 28, 6, 420},
      {6, 1, 1, 1, 6, 6, 1, 46, 47, 6, 308},
      {6, 1, 1, 2, 6, 6, 1, 17, 18, 6, 327},
      {6, 1, 1, 3, 12, 12, 1, 46, 47, 12, 160},
      {7, 1, 0, 0, 5, 5, 1, 28, 29, 5, 378},
      {7, 1, 0, 1, 3, 3, 1, 7, 8, 3, 528},
      {7, 1, 0, 2, 3, 6, 2, 31, 33, 6, 595},
      {7, 1, 0, 3, 3, 3, 1, 7, 8, 3, 465},
      {7, 1, 1, 0, 5, 5, 1, 28, 29, 5, 188},
      {7, 1, 1, 1, 3, 3, 1, 7, 8, 3, 378},
      {7, 1, 1, 2, 3, 6, 2, 31, 33, 6, 465},
      {7, 1, 1, 3, 3, 3, 1, 7, 8, 3, 313},
      {7, 0, 0, 0, 5, 5, 1, 28, 29, 5, 378},
      {7, 0, 0, 1, 3, 3, 1, 7, 8, 3, 528},
      {7, 0, 0, 2, 3, 6, 2, 31, 33, 6, 595},
      {7, 0, 0, 3, 3, 3, 1, 7, 8, 3, 465},
      {7, 0, 1, 0, 5, 5, 1, 28, 29, 5, 188},
      {7, 0, 1, 1, 3, 9, 3, 41, 44, 9, 378},
      {7, 0, 1, 2, 3, 6, 2, 31, 33, 6, 465},
      {7, 0, 1, 3, 3, 3, 1, 7, 8, 3, 313},
      {8, 1, 0, 0, 6, 6, 1, 39, 40, 6, 667},
      {8, 1, 0, 1, 7, 7, 1, 61, 62, 7, 436},
      {8, 1, 0, 2, 8, 8, 1, 43, 44, 8, 497},
      {8, 1, 0, 3, 6, 6, 1, 39, 40, 6, 704},
      {8, 1, 1, 0, 6, 6, 1, 39, 40, 6, 478},
      {8, 1, 1, 1, 7, 7, 1, 61, 62, 7, 184},
      {8, 1, 1, 2, 8, 8, 1, 43, 44, 8, 222},
      {8, 1, 1, 3, 6, 6, 1, 39, 40, 6, 507},
};
// clang-format on

TEST(ParallelBound, MatchesPinnedResultsAtEveryThreadCount) {
  // Seeds 1-5 use the computed windows; seeds 6-8 shrink every third window
  // to half its computation time (L_i - E_i < C_i), the shape infeasible
  // instances bring to the bound stage. Seeds 2 and 7 also run without
  // partitioning.
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.num_tasks = 48;
    params.laxity = 1.3 + 0.3 * static_cast<double>(seed % 4);
    params.release_spread = (seed % 2 == 0) ? 0.6 : 0.0;
    params.preemptive_prob = (seed % 3 == 0) ? 0.5 : 0.3;
    params.resource_prob = 0.5;
    ProblemInstance inst = generate_workload(params);
    SharedMergeOracle oracle;
    TaskWindows w = compute_windows(*inst.app, oracle);
    if (seed > 5) {
      for (TaskId i = 0; i < inst.app->num_tasks(); i += 3) {
        w.lct[i] = w.est[i] + inst.app->task(i).comp / 2;
      }
    }
    for (bool partition : {true, false}) {
      if (!partition && seed != 2 && seed != 7) continue;
      for (bool prune : {false, true}) {
        std::vector<PinnedBound> expected;
        for (const PinnedBound& p : kPinnedBounds) {
          if (p.seed == seed && p.partition == partition && p.prune == prune) {
            expected.push_back(p);
          }
        }
        for (int threads : {1, 4}) {
          LowerBoundOptions opts;
          opts.use_partitioning = partition;
          opts.enable_pruning = prune;
          opts.num_threads = threads;
          const std::string ctx = "seed " + std::to_string(seed) +
                                  " partition=" + std::to_string(partition) +
                                  " prune=" + std::to_string(prune) +
                                  " threads=" + std::to_string(threads);
          const std::vector<ResourceBound> got = all_resource_bounds(*inst.app, w, opts);
          ASSERT_EQ(got.size(), expected.size()) << ctx;
          for (std::size_t k = 0; k < got.size(); ++k) {
            const PinnedBound& e = expected[k];
            EXPECT_EQ(got[k].resource, e.resource) << ctx;
            EXPECT_EQ(got[k].bound, e.bound) << ctx;
            EXPECT_EQ(got[k].peak_density.num, e.num) << ctx;
            EXPECT_EQ(got[k].peak_density.den, e.den) << ctx;
            EXPECT_EQ(got[k].witness_t1, e.t1) << ctx;
            EXPECT_EQ(got[k].witness_t2, e.t2) << ctx;
            EXPECT_EQ(got[k].witness_demand, e.demand) << ctx;
            EXPECT_EQ(got[k].intervals_evaluated, e.evaluated) << ctx;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * std::size(kPinnedBounds));
}

class WitnessTieTest : public ::testing::Test {
 protected:
  WitnessTieTest() : app_(cat_) { p_ = cat_.add_processor_type("P", 1); }

  void add(Time comp, Time rel, Time deadline) {
    Task t;
    t.name = "t" + std::to_string(app_.num_tasks());
    t.comp = comp;
    t.release = rel;
    t.deadline = deadline;
    t.proc = p_;
    app_.add_task(std::move(t));
  }

  ResourceCatalog cat_;
  Application app_;
  ResourceId p_;
};

TEST_F(WitnessTieTest, TieAcrossBlocksKeepsWitnessConsistentWithPeak) {
  // Two window-disjoint blocks whose peak densities TIE exactly (1/2): the
  // witness must describe an interval whose density equals the reported
  // peak, and ties must resolve deterministically to the earliest block.
  add(2, 0, 4);    // block 1: density 2/4 over [0, 4]
  add(3, 10, 16);  // block 2: density 3/6 over [10, 16]
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app_, oracle);
  for (int threads : {1, 4}) {
    for (bool prune : {false, true}) {
      LowerBoundOptions opts;
      opts.num_threads = threads;
      opts.enable_pruning = prune;
      const ResourceBound b = resource_lower_bound(app_, w, p_, opts);
      EXPECT_TRUE((Ratio{1, 2}) == b.peak_density);
      // Tie resolves to the first block in scan order.
      EXPECT_EQ(b.witness_t1, 0);
      EXPECT_EQ(b.witness_t2, 4);
      EXPECT_EQ(b.witness_demand, 2);
      // The invariant itself: recomputed witness density == reported peak.
      const std::vector<TaskId> st = app_.tasks_using(p_);
      EXPECT_EQ(demand(app_, w, st, b.witness_t1, b.witness_t2), b.witness_demand);
      EXPECT_TRUE((Ratio{b.witness_demand, b.witness_t2 - b.witness_t1}) == b.peak_density);
    }
  }
}

TEST_F(WitnessTieTest, LaterBlockWinningStrictlyMovesTheWitness) {
  add(2, 0, 4);    // block 1: density 1/2
  add(5, 10, 16);  // block 2: density 5/6 -- strictly better
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app_, oracle);
  const ResourceBound b = resource_lower_bound(app_, w, p_);
  EXPECT_TRUE((Ratio{5, 6}) == b.peak_density);
  EXPECT_EQ(b.witness_t1, 10);
  EXPECT_EQ(b.witness_t2, 16);
}

TEST(RatioOverflow, CeilIsExactNearInt64Max) {
  // The old ceil_div computed (num + den - 1) / den, which wraps for
  // numerators near INT64_MAX; the remainder form must not.
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() - 2;
  EXPECT_EQ(ceil_div(big, 1), big);
  EXPECT_EQ(ceil_div(big, big), 1);
  EXPECT_EQ(ceil_div(big - 1, big), 1);
  EXPECT_EQ(ceil_div(big, 1000), big / 1000 + 1);
  EXPECT_EQ((Ratio{big, 1000}).ceil(), big / 1000 + 1);
}

TEST(RatioOverflow, ComparisonsAreExactOnHugeTimes) {
  const Time t = kTimeMax;
  // 2t/(2t-1) > 1 > (2t-1)/2t -- distinguishable only with exact wide
  // arithmetic.
  EXPECT_TRUE((Ratio{2 * t, 2 * t - 1}) > (Ratio{1, 1}));
  EXPECT_TRUE((Ratio{2 * t - 1, 2 * t}) < (Ratio{1, 1}));
  EXPECT_TRUE((Ratio{2 * t, 2 * t}) == (Ratio{1, 1}));
  MaxRatio m;
  m.update(2 * t - 1, 2 * t);
  m.update(2 * t, 2 * t - 1);
  m.update(1, 1);
  EXPECT_TRUE(m.best() == (Ratio{2 * t, 2 * t - 1}));
}

TEST(RatioOverflow, BoundOnNearMaxWindowsIsExact) {
  // Two tasks whose demand over the shared window pushes num + den past
  // INT64_MAX in the old ceil_div. 2C/D with C = 3/8 max, D = 35/80 max:
  // num + den - 1 = 6/8 max + 35/80 max > INT64_MAX, while the true bound
  // is ceil(60/35) = 2.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const Time comp = max / 8 * 3;
  const Time deadline = max / 80 * 35;
  ResourceCatalog cat;
  const ResourceId p = cat.add_processor_type("P", 1);
  Application app(cat);
  for (int i = 0; i < 2; ++i) {
    Task t;
    t.name = "big" + std::to_string(i);
    t.comp = comp;
    t.release = 0;
    t.deadline = deadline;
    t.proc = p;
    app.add_task(std::move(t));
  }
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app, oracle);
  for (bool prune : {false, true}) {
    LowerBoundOptions opts;
    opts.enable_pruning = prune;
    const ResourceBound b = resource_lower_bound(app, w, p, opts);
    EXPECT_EQ(b.bound, 2);
    EXPECT_EQ(b.witness_demand, 2 * comp);
    EXPECT_TRUE((Ratio{2 * comp, deadline}) == b.peak_density);
  }
}

TEST(RatioOverflow, DemandOverflowIsDetectedNotWrapped) {
  // Enough near-max tasks that Theta itself cannot be represented: the
  // analysis must refuse loudly instead of returning a wrapped bound. The
  // windows end at kSafeTime, the widest the windows engine accepts (one
  // tick further and compute_windows refuses them, RTLB-E310).
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  ResourceCatalog cat;
  const ResourceId p = cat.add_processor_type("P", 1);
  Application app(cat);
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.name = "huge" + std::to_string(i);
    t.comp = max / 4 * 3;
    t.release = 0;
    t.deadline = kSafeTime;
    t.proc = p;
    app.add_task(std::move(t));
  }
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app, oracle);
  EXPECT_THROW(resource_lower_bound(app, w, p), ModelError);
  app.task(3).deadline = kSafeTime + 1;
  EXPECT_THROW(compute_windows(app, oracle), ModelError);
}

TEST(ParallelBound, PoolIsCappedAtTheScanUnits) {
  // Two overlapping tasks on one processor type and one resource: each of
  // the two rows is one block of at most four window endpoints, one scan
  // unit, so 24 requested workers start two threads.
  ResourceCatalog cat;
  const ResourceId cpu = cat.add_processor_type("CPU");
  const ResourceId bus = cat.add_resource("BUS");
  Application app(cat);
  for (Time release : {0, 3}) {
    Task t;
    t.name = "t" + std::to_string(release);
    t.comp = 4;
    t.release = release;
    t.deadline = release + 6;
    t.proc = cpu;
    t.resources = {bus};
    app.add_task(std::move(t));
  }
  const TaskWindows w = compute_windows(app, SharedMergeOracle());
  LowerBoundOptions opts;
  const std::vector<ResourceBound> serial = all_resource_bounds(app, w, opts);
  opts.num_threads = 24;
  const std::uint64_t before = ThreadPool::threads_started();
  const std::vector<ResourceBound> threaded = all_resource_bounds(app, w, opts);
  EXPECT_EQ(ThreadPool::threads_started() - before, 2u);
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    expect_bitwise_equal(serial[r], threaded[r], "row " + std::to_string(r));
  }
}

}  // namespace
}  // namespace rtlb
