#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/analysis.hpp"
#include "src/core/report.hpp"
#include "src/model/io.hpp"
#include "src/workload/taskset_gen.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {
namespace {

class PeriodicTest : public ::testing::Test {
 protected:
  PeriodicTest() { p_ = cat_.add_processor_type("P", 3); }

  Transaction simple(const std::string& name, Time period, Time comp, Time offset = 0) {
    Transaction tr;
    tr.name = name;
    tr.period = period;
    tr.offset = offset;
    PeriodicTask t;
    t.name = "job";
    t.comp = comp;
    t.proc = p_;
    tr.tasks.push_back(std::move(t));
    return tr;
  }

  ResourceCatalog cat_;
  ResourceId p_;
};

TEST_F(PeriodicTest, HyperperiodIsLcm) {
  EXPECT_EQ(hyperperiod({simple("a", 4, 1), simple("b", 6, 1)}), 12);
  EXPECT_EQ(hyperperiod({simple("a", 5, 1)}), 5);
  EXPECT_EQ(hyperperiod({}), 1);
}

TEST_F(PeriodicTest, UnrollCountsInstances) {
  const Application app = unroll(cat_, {simple("a", 4, 1), simple("b", 6, 2)});
  // 12 / 4 = 3 instances of a, 12 / 6 = 2 of b.
  EXPECT_EQ(app.num_tasks(), 5u);
  EXPECT_NE(app.find_task("a.job@0"), kInvalidTask);
  EXPECT_NE(app.find_task("a.job@2"), kInvalidTask);
  EXPECT_NE(app.find_task("b.job@1"), kInvalidTask);
}

TEST_F(PeriodicTest, InstanceWindowsTrackThePeriodSlots) {
  const Application app = unroll(cat_, {simple("a", 10, 3, /*offset=*/2)});
  const TaskId k0 = app.find_task("a.job@0");
  EXPECT_EQ(app.task(k0).release, 2);
  EXPECT_EQ(app.task(k0).deadline, 12);
}

TEST_F(PeriodicTest, RelativeDeadlineTightensWindow) {
  Transaction tr = simple("a", 10, 3);
  tr.tasks[0].relative_deadline = 6;
  const Application app = unroll(cat_, {tr});
  EXPECT_EQ(app.task(app.find_task("a.job@0")).deadline, 6);
}

TEST_F(PeriodicTest, TemplateEdgesReplicatedPerInstance) {
  Transaction tr;
  tr.name = "pipe";
  tr.period = 20;
  PeriodicTask a;
  a.name = "a";
  a.comp = 2;
  a.proc = p_;
  PeriodicTask b = a;
  b.name = "b";
  tr.tasks = {a, b};
  tr.edges = {{0, 1, 3}};
  const Application app = unroll(cat_, {tr}, /*chain_instances=*/false);
  const TaskId a0 = app.find_task("pipe.a@0");
  const TaskId b0 = app.find_task("pipe.b@0");
  EXPECT_TRUE(app.dag().has_edge(a0, b0));
  EXPECT_EQ(app.message(a0, b0), 3);
}

TEST_F(PeriodicTest, ChainingLinksConsecutiveInstances) {
  // b stretches the hyperperiod to 8, so 'a' gets two instances.
  const std::vector<Transaction> set{simple("a", 4, 1), simple("b", 8, 1)};
  const Application chained = unroll(cat_, set);
  const TaskId k0 = chained.find_task("a.job@0");
  const TaskId k1 = chained.find_task("a.job@1");
  ASSERT_NE(k0, kInvalidTask);
  ASSERT_NE(k1, kInvalidTask);
  EXPECT_TRUE(chained.dag().has_edge(k0, k1));
  EXPECT_EQ(chained.message(k0, k1), 0);

  const Application loose = unroll(cat_, set, /*chain_instances=*/false);
  EXPECT_FALSE(loose.dag().has_edge(loose.find_task("a.job@0"), loose.find_task("a.job@1")));
}

TEST_F(PeriodicTest, ValidationRejectsBadTransactions) {
  Transaction bad = simple("x", 10, 3);
  bad.tasks[0].relative_deadline = 12;  // beyond the period
  EXPECT_THROW(validate_transactions(cat_, {bad}), ModelError);

  Transaction tight = simple("y", 10, 3);
  tight.tasks[0].offset = 9;  // 1 tick left for 3 ticks of work
  EXPECT_THROW(validate_transactions(cat_, {tight}), ModelError);

  Transaction neg = simple("z", 0, 1);
  EXPECT_THROW(validate_transactions(cat_, {neg}), ModelError);

  Transaction off = simple("w", 10, 1);
  off.offset = 10;
  EXPECT_THROW(validate_transactions(cat_, {off}), ModelError);

  Transaction cyc = simple("c", 10, 1);
  PeriodicTask extra;
  extra.name = "extra";
  extra.comp = 1;
  extra.proc = p_;
  cyc.tasks.push_back(extra);
  cyc.edges = {{0, 1, 0}, {1, 0, 0}};
  EXPECT_THROW(validate_transactions(cat_, {cyc}), ModelError);
}

TEST_F(PeriodicTest, UnrolledBoundsSeePerSlotContention) {
  // Two unit-period transactions sharing the processor: each slot carries
  // 2 + 2 = 4 ticks of work in a 4-tick period -> LB = 1; shrink the period
  // headroom and the bound climbs.
  Transaction a = simple("a", 4, 2);
  Transaction b = simple("b", 4, 2);
  Application relaxed = unroll(cat_, {a, b});
  const AnalysisResult r1 = analyze(relaxed);
  EXPECT_EQ(r1.bound_for(p_), 1);

  Transaction c = simple("c", 4, 3);
  Transaction d = simple("d", 4, 3);
  Application tight = unroll(cat_, {c, d});
  const AnalysisResult r2 = analyze(tight);
  EXPECT_EQ(r2.bound_for(p_), 2);  // 6 ticks of mandatory work per 4-tick slot
}

TEST_F(PeriodicTest, PartitionBlocksAlignWithSlots) {
  // 'a' (period 5) runs 4 instances over the hyperperiod 20 stretched by a
  // filler transaction on a DIFFERENT processor type, so ST_P for 'a''s
  // processor splits into exactly one block per slot -- the phased shape
  // Theorem 5 exploits on periodic workloads.
  const ResourceId q = cat_.add_processor_type("Q", 2);
  Transaction filler;
  filler.name = "b";
  filler.period = 20;
  PeriodicTask f;
  f.name = "job";
  f.comp = 2;
  f.proc = q;
  filler.tasks.push_back(std::move(f));

  const Application mixed = unroll(cat_, {simple("a", 5, 4), filler});
  const AnalysisResult res = analyze(mixed);
  for (const ResourcePartition& part : res.partitions) {
    if (part.resource == p_) {
      ASSERT_EQ(part.blocks.size(), 4u);  // [0,5) [5,10) [10,15) [15,20)
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(part.blocks[k].start, static_cast<Time>(5 * k));
        EXPECT_EQ(part.blocks[k].finish, static_cast<Time>(5 * (k + 1)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The overflow-checked hyperperiod (satellite of the workload front door).

TEST_F(PeriodicTest, CheckedHyperperiodSaturatesAndThrowingVariantThrows) {
  // 2^62 and 2^62 - 1 are coprime: the true lcm is ~2^124, far outside Time.
  const Transaction big1 = simple("a", Time{1} << 62, 1);
  const Transaction big2 = simple("b", (Time{1} << 62) - 1, 1);
  const Hyperperiod h = checked_hyperperiod({big1, big2});
  EXPECT_TRUE(h.overflow);
  EXPECT_EQ(h.value, kTimeMax);
  EXPECT_THROW(hyperperiod({big1, big2}), ModelError);

  // Sporadic transactions recur by minimum inter-arrival, not by period;
  // they do not participate in the lcm.
  Transaction sp = simple("s", (Time{1} << 62) - 1, 1);
  sp.kind = ReleaseKind::kSporadic;
  sp.horizon = 8;
  EXPECT_FALSE(checked_hyperperiod({simple("a", 4, 1), sp}).overflow);
  EXPECT_EQ(hyperperiod({simple("a", 4, 1), sp}), 4);
}

TEST_F(PeriodicTest, LoweringOverTheTaskBudgetIsRefusedBeforeAllocating) {
  // A representable hyperperiod (3037000500) that still unrolls the
  // period-100 transaction 30370005 times, two tasks each.
  Transaction slow = simple("slow", 3037000500, 1);
  Transaction fast = simple("fast", 100, 1);
  fast.tasks.push_back(fast.tasks[0]);
  fast.tasks[1].name = "job2";
  Workload w;
  w.transactions = {slow, fast};
  ASSERT_FALSE(checked_hyperperiod(w.transactions).overflow);
  EXPECT_EQ(static_cast<std::int64_t>(activation_count(fast, 3037000500)), 30370005);
  EXPECT_EQ(static_cast<std::int64_t>(lowered_task_count(w.transactions, 3037000500)),
            1 + 2 * 30370005);
  EXPECT_THROW(validate_workload(cat_, w), ModelError);
  EXPECT_THROW(lower_workload(cat_, w), ModelError);
  // Without validation the lowering's own guard still refuses up front.
  EXPECT_THROW(lower_workload(cat_, w, LowerOptions{.validate = false}), std::logic_error);
  // One activation per tick over a kMaxLoweredTasks-tick horizon: exactly the budget.
  Transaction at_budget = simple("edge", 1, 1);
  EXPECT_EQ(static_cast<std::int64_t>(lowered_task_count({at_budget}, kMaxLoweredTasks)),
            kMaxLoweredTasks);
}

TEST_F(PeriodicTest, DenseTemplateAtTheTaskBudgetStillLowers) {
  // A complete 10-task DAG (45 edges) over 104857 activations: 1048570
  // tasks, within the task budget, and 45 * 104857 template edges plus
  // 104856 chaining edges (one sink, one source), within the edge budget.
  Transaction dense = simple("dense", 100, 1);
  dense.kind = ReleaseKind::kSporadic;
  dense.horizon = 100 * 104857;
  for (std::size_t i = 1; i < 10; ++i) {
    dense.tasks.push_back(dense.tasks[0]);
    dense.tasks[i].name = "job" + std::to_string(i);
    for (std::size_t j = 0; j < i; ++j) dense.edges.push_back({.from = j, .to = i});
  }
  Workload w;
  w.transactions = {dense};
  const Application app = lower_workload(cat_, w);  // validates: no RTLB-E509
  EXPECT_EQ(app.num_tasks(), 1048570u);
  EXPECT_EQ(app.dag().num_edges(), 45u * 104857 + 104856);
}

TEST_F(PeriodicTest, UnchainedLoweringBudgetsOnlyTemplateEdges) {
  // 256 independent tasks over 514 activations: chaining would add
  // 256 * 256 * 513 edges, over the edge budget; unchained it adds none.
  Transaction wide = simple("wide", 10, 1);
  wide.kind = ReleaseKind::kSporadic;
  wide.horizon = 10 * 514;
  for (int i = 1; i < 256; ++i) {
    wide.tasks.push_back(wide.tasks[0]);
    wide.tasks.back().name = "job" + std::to_string(i);
  }
  Workload w;
  w.transactions = {wide};
  EXPECT_EQ(static_cast<std::int64_t>(lowered_edge_count(wide, 1, /*chain_instances=*/true)),
            std::int64_t{256} * 256 * 513);
  ASSERT_GT(std::int64_t{256} * 256 * 513, kMaxLoweredEdges);
  EXPECT_EQ(static_cast<std::int64_t>(lowered_edge_count(wide, 1, /*chain_instances=*/false)), 0);
  EXPECT_THROW(validate_workload(cat_, w), ModelError);  // lint budgets the chained lowering
  EXPECT_THROW(lower_workload(cat_, w, LowerOptions{.validate = false}), std::logic_error);
  const Application app =
      lower_workload(cat_, w, LowerOptions{.chain_instances = false, .validate = false});
  EXPECT_EQ(app.num_tasks(), 256u * 514);
  EXPECT_EQ(app.dag().num_edges(), 0u);
}

// ---------------------------------------------------------------------------
// Sporadic lowering: the densest legal release sequence over the horizon.

TEST_F(PeriodicTest, SporadicLoweringUnrollsTheDensestSequence) {
  Transaction sp = simple("s", 100, 6, /*offset=*/5);
  sp.kind = ReleaseKind::kSporadic;
  sp.horizon = 200;
  Workload w;
  w.transactions = {sp};
  const Application app = lower_workload(cat_, w);
  // Releases at 5 and 105 (strictly before the horizon 200); a third
  // activation at 205 lies beyond it.
  EXPECT_EQ(app.num_tasks(), 2u);
  const TaskId k0 = app.find_task("s.job@0");
  const TaskId k1 = app.find_task("s.job@1");
  ASSERT_NE(k0, kInvalidTask);
  ASSERT_NE(k1, kInvalidTask);
  EXPECT_EQ(app.task(k0).release, 5);
  EXPECT_EQ(app.task(k0).deadline, 105);  // slot + mininter
  EXPECT_EQ(app.task(k1).release, 105);
  EXPECT_EQ(app.task(k1).deadline, 205);
  // Back-to-back activations chain like periodic instances do.
  EXPECT_TRUE(app.dag().has_edge(k0, k1));
  EXPECT_EQ(app.message(k0, k1), 0);
}

TEST_F(PeriodicTest, SporadicWithoutHorizonBorrowsThePeriodicHyperperiod) {
  Transaction sp = simple("s", 2, 1);
  sp.kind = ReleaseKind::kSporadic;  // horizon 0: borrow
  Workload w;
  w.transactions = {simple("a", 4, 1), sp};
  const Application app = lower_workload(cat_, w);
  // Hyperperiod 4: one 'a' activation, two 's' activations at 0 and 2.
  EXPECT_EQ(app.num_tasks(), 3u);
  EXPECT_NE(app.find_task("s.job@1"), kInvalidTask);
  EXPECT_EQ(app.find_task("s.job@2"), kInvalidTask);
}

// ---------------------------------------------------------------------------
// The recurrent analyze() front door: the template gate ALWAYS refuses
// (lowering a broken template is meaningless at any lint level), and a clean
// workload analyzes exactly like its hand-lowered flat instance.

TEST_F(PeriodicTest, AnalyzeWorkloadRefusesTemplateErrorsAtEveryLintLevel) {
  Workload bad;
  bad.transactions = {simple("x", 0, 1)};  // RTLB-E501
  // Even at kOff the template gate refuses, with the batched LintGateError
  // (a ModelError) of every other level.
  AnalysisOptions off;
  EXPECT_THROW(analyze(cat_, bad, off), ModelError);
  // E5xx refuses even at kReport, where flat errors would merely be
  // recorded.
  AnalysisOptions report;
  report.lint_level = LintLevel::kReport;
  try {
    analyze(cat_, bad, report);
    FAIL() << "template error did not refuse at kReport";
  } catch (const LintGateError& e) {
    EXPECT_NE(std::string(e.what()).find("RTLB-E501"), std::string::npos);
  }
}

TEST_F(PeriodicTest, AnalyzeWorkloadEqualsAnalyzeOfTheLoweredInstance) {
  Workload w;
  w.transactions = {simple("a", 4, 2), simple("b", 8, 3)};
  const AnalysisResult front = analyze(cat_, w);
  const Application flat = unroll(cat_, w.transactions);
  const AnalysisResult cold = analyze(flat);
  EXPECT_EQ(report_string(flat, front), report_string(flat, cold));
}

// ---------------------------------------------------------------------------
// Determinism: lowering the same workload twice -- and analyzing the result
// at different worker counts -- must be byte-identical. This is the property
// that lets warm sessions detect no-op template deltas by byte comparison.

TEST(RecurrentProperty, LoweringIsDeterministicByteForByte) {
  for (const ReleaseKind kind : {ReleaseKind::kPeriodic, ReleaseKind::kSporadic}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      WorkloadParams params;
      params.seed = seed * 7;
      params.num_tasks = 18;
      ProblemInstance inst = generate_recurrent_instance(params, kind);
      ASSERT_FALSE(inst.workload.empty());

      const Application once = lower_workload(*inst.catalog, inst.workload);
      const Application twice = lower_workload(*inst.catalog, inst.workload);
      const std::string bytes = serialize_instance(once, inst.platform);
      EXPECT_EQ(bytes, serialize_instance(twice, inst.platform));
      // The generator lowered with the same defaults; its instance agrees.
      EXPECT_EQ(bytes, serialize_instance(*inst.app, inst.platform));

      // The report echoes the requested worker count; mask that one line so
      // the comparison checks the ANALYSIS bytes, which must not move.
      const auto mask_thread_echo = [](std::string report) {
        const std::string key = "\"num_threads\":";
        const std::size_t at = report.find(key);
        if (at != std::string::npos) {
          report.erase(at, report.find('\n', at) - at);
        }
        return report;
      };
      AnalysisOptions serial;
      serial.lower_bound.num_threads = 1;
      AnalysisOptions threaded;
      threaded.lower_bound.num_threads = 4;
      EXPECT_EQ(mask_thread_echo(report_string(once, analyze(once, serial))),
                mask_thread_echo(report_string(once, analyze(once, threaded))));
    }
  }
}

// ---------------------------------------------------------------------------
// unroll == hand-built: an independent, naive expansion of the templates
// (straight double loop, degree counting instead of Dag queries) must
// reproduce the lowered instance byte-for-byte.

Application hand_expand(const ResourceCatalog& catalog, const Workload& workload) {
  Application app(catalog);
  const Hyperperiod h = checked_hyperperiod(workload.transactions);
  for (const Transaction& tr : workload.transactions) {
    const Time horizon =
        tr.kind == ReleaseKind::kSporadic && tr.horizon > 0 ? tr.horizon : h.value;
    if (horizon <= tr.offset) continue;
    const Time instances = (horizon - tr.offset + tr.period - 1) / tr.period;

    std::vector<int> indeg(tr.tasks.size(), 0), outdeg(tr.tasks.size(), 0);
    for (const TemplateEdge& e : tr.edges) {
      ++outdeg[e.from];
      ++indeg[e.to];
    }
    std::vector<TaskId> prev;
    for (Time k = 0; k < instances; ++k) {
      const Time slot = tr.offset + k * tr.period;
      std::vector<TaskId> ids;
      for (const TemplateTask& t : tr.tasks) {
        Task inst;
        inst.name = tr.name + "." + t.name + "@" + std::to_string(k);
        inst.comp = t.comp;
        inst.release = slot + t.offset;
        inst.deadline = slot + (t.relative_deadline > 0 ? t.relative_deadline : tr.period);
        inst.proc = t.proc;
        inst.resources = t.resources;
        inst.preemptive = t.preemptive;
        ids.push_back(app.add_task(std::move(inst)));
      }
      for (const TemplateEdge& e : tr.edges) {
        app.add_edge(ids[e.from], ids[e.to], e.msg);
      }
      if (k > 0) {
        for (std::size_t sink = 0; sink < tr.tasks.size(); ++sink) {
          if (outdeg[sink] != 0) continue;
          for (std::size_t source = 0; source < tr.tasks.size(); ++source) {
            if (indeg[source] == 0) app.add_edge(prev[sink], ids[source], 0);
          }
        }
      }
      prev = std::move(ids);
    }
  }
  return app;
}

TEST(RecurrentProperty, UnrollMatchesAHandBuiltExpansion) {
  for (const GraphShape shape :
       {GraphShape::Layered, GraphShape::ForkJoin, GraphShape::SeriesParallel}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (const ReleaseKind kind : {ReleaseKind::kPeriodic, ReleaseKind::kSporadic}) {
        WorkloadParams params;
        params.seed = seed * 13;
        params.shape = shape;
        params.num_tasks = 15;
        ProblemInstance inst = generate_recurrent_instance(params, kind);
        const Application hand = hand_expand(*inst.catalog, inst.workload);
        EXPECT_EQ(serialize_instance(*inst.app, inst.platform),
                  serialize_instance(hand, inst.platform))
            << "shape " << static_cast<int>(shape) << " seed " << seed << " kind "
            << static_cast<int>(kind);
      }
    }
  }
}

}  // namespace
}  // namespace rtlb
