// AnalysisSession correctness: a session must be indistinguishable from a
// cold analyze() at every query, no matter what delta sequence preceded it.
// The property test drives randomized sequences of deadline / message /
// comp / preemptive / platform deltas over generated workloads, with the
// session's own cross-check enabled AND an explicit result comparison here
// (belt and braces: the internal check compares AnalysisResult values, the
// external one the JSON report plus the joint rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/random.hpp"
#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/model/io.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/taskset_gen.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {
namespace {

void expect_same_result(const Application& app, const AnalysisResult& got,
                        const AnalysisResult& want, const std::string& context) {
  EXPECT_EQ(report_string(app, got), report_string(app, want)) << context;
  ASSERT_EQ(got.joint.size(), want.joint.size()) << context;
  for (std::size_t i = 0; i < got.joint.size(); ++i) {
    EXPECT_EQ(got.joint[i].a, want.joint[i].a) << context;
    EXPECT_EQ(got.joint[i].b, want.joint[i].b) << context;
    EXPECT_EQ(got.joint[i].bound, want.joint[i].bound) << context;
    EXPECT_EQ(got.joint[i].witness_t1, want.joint[i].witness_t1) << context;
    EXPECT_EQ(got.joint[i].witness_t2, want.joint[i].witness_t2) << context;
  }
}

/// One randomized delta: pick a task (or edge) and perturb one field,
/// keeping the instance valid (deadline >= release + comp, comp >= 1).
void apply_random_delta(AnalysisSession& session, Rng& rng) {
  const Application& app = session.app();
  const TaskId i = static_cast<TaskId>(rng.index(app.num_tasks()));
  const Task& t = app.task(i);
  switch (rng.index(4)) {
    case 0: {  // deadline wiggle, never below release + comp
      const Time floor = t.release + t.comp;
      session.set_deadline(i, floor + rng.uniform(0, 40));
      break;
    }
    case 1: {  // comp wiggle, keeping the window big enough
      const Time window = t.deadline - t.release;
      const Time comp = rng.uniform(1, std::max<Time>(1, std::min<Time>(10, window)));
      session.set_comp(i, comp);
      break;
    }
    case 2: {  // flip preemptability
      session.set_preemptive(i, !t.preemptive);
      break;
    }
    default: {  // resize a message if the task has a successor
      if (!app.successors(i).empty()) {
        const TaskId j = app.successors(i)[rng.index(app.successors(i).size())];
        session.set_message(i, j, rng.uniform(0, 8));
      }
      break;
    }
  }
}

TEST(SessionProperty, MatchesColdAnalyzeAcrossRandomDeltaSequences) {
  struct Config {
    SystemModel model;
    bool platform;
    bool joint;
    bool pruning;
  };
  const Config configs[] = {
      {SystemModel::Shared, false, false, false},
      {SystemModel::Shared, true, true, true},
      {SystemModel::Dedicated, true, false, false},
  };
  for (const Config& cfg : configs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      WorkloadParams params;
      params.seed = seed * 17;
      params.num_tasks = 14;
      params.laxity = 1.6;
      params.resource_prob = 0.5;
      params.preemptive_prob = 0.3;
      ProblemInstance inst = generate_workload(params);

      AnalysisOptions options;
      options.model = cfg.model;
      options.joint_bounds = cfg.joint;
      options.lower_bound.enable_pruning = cfg.pruning;
      const DedicatedPlatform* platform = cfg.platform ? &inst.platform : nullptr;

      AnalysisSession session(*inst.app, options, platform);
      session.set_verify(true);
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(cfg.model == SystemModel::Dedicated));
      for (int step = 0; step < 12; ++step) {
        apply_random_delta(session, rng);
        // A second delta half the time, so multi-field invalidation is hit.
        if (rng.chance(0.5)) apply_random_delta(session, rng);
        const AnalysisResult& warm = session.analyze();
        const AnalysisResult cold = analyze(session.app(), options, platform);
        expect_same_result(session.app(), warm, cold,
                           "seed " + std::to_string(seed) + " step " + std::to_string(step));
      }
      // Query hits short-circuit before the verify cross-check runs (the
      // cached result was already verified when it was produced), so every
      // query is either a hit or a verified recompute.
      EXPECT_EQ(session.stats().verified + session.stats().query_hits,
                session.stats().queries);
      EXPECT_GT(session.stats().verified, 0u);
    }
  }
}

TEST(SessionProperty, PlatformSwapsMatchColdAnalyze) {
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;

  // The paper menu, a reduced menu, and back again.
  DedicatedPlatform reduced;
  reduced.add_node_type(inst.platform.node_type(0));
  reduced.add_node_type(inst.platform.node_type(2));

  AnalysisSession session(*inst.app, options, &inst.platform);
  session.set_verify(true);
  for (const DedicatedPlatform* p : {&inst.platform, &reduced, &inst.platform}) {
    session.set_platform(p);
    const AnalysisResult& warm = session.analyze();
    const AnalysisResult cold = analyze(session.app(), options, p);
    expect_same_result(session.app(), warm, cold, "platform swap");
  }
}

TEST(SessionStatsTest, RepeatQueryIsAHit) {
  ProblemInstance inst = paper_example();
  AnalysisSession session(*inst.app);
  session.analyze();
  session.analyze();
  // A no-op delta must not invalidate anything either.
  session.set_deadline(0, inst.app->task(0).deadline);
  session.analyze();
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.query_hits, 2u);
  EXPECT_EQ(stats.window_misses, 1u);
}

TEST(SessionStatsTest, UntouchedBlocksHitTheCacheAcrossADelta) {
  // Two independent components on separate processor types: a delta in one
  // must replay the other's blocks from the cache.
  ResourceCatalog cat;
  const ResourceId p1 = cat.add_processor_type("P1", 1);
  const ResourceId p2 = cat.add_processor_type("P2", 1);
  Application app(cat);
  auto mk = [&](const char* name, ResourceId proc, Time deadline) {
    Task t;
    t.name = name;
    t.comp = 3;
    t.deadline = deadline;
    t.proc = proc;
    app.add_task(std::move(t));
  };
  mk("a1", p1, 6);
  mk("a2", p1, 6);
  mk("b1", p2, 6);
  mk("b2", p2, 6);

  AnalysisSession session(std::move(app));
  session.analyze();
  const SessionStats before = session.stats();
  session.set_deadline(0, 9);  // perturbs only the P1 block
  session.analyze();
  const SessionStats after = session.stats();
  EXPECT_GT(after.block_hits, before.block_hits);  // the P2 block replayed
  EXPECT_GT(after.block_misses, before.block_misses);  // the P1 block rescanned
}

TEST(SessionStatsTest, PreemptiveDeltaRecomputesWindowsAndReplaysPartitions) {
  // set_preemptive changes Theta only (Theorem 3 vs 4), never a window: the
  // query recomputes the windows, finds them value-equal, replays the
  // partitions, and rescans the bounds -- with the P2 block, which the
  // toggled task is not in, served from the block cache.
  ResourceCatalog cat;
  const ResourceId p1 = cat.add_processor_type("P1", 1);
  const ResourceId p2 = cat.add_processor_type("P2", 1);
  Application app(cat);
  for (const auto& [name, proc] : {std::pair{"a1", p1}, {"a2", p1}, {"b1", p2}, {"b2", p2}}) {
    Task t;
    t.name = name;
    t.comp = 3;
    t.deadline = 7;
    t.proc = proc;
    app.add_task(std::move(t));
  }

  AnalysisSession session(std::move(app));
  session.set_verify(true);
  session.analyze();
  const SessionStats before = session.stats();
  session.set_preemptive(0, !session.app().task(0).preemptive);
  const AnalysisResult& warm = session.analyze();
  const SessionStats after = session.stats();
  EXPECT_EQ(after.window_misses, before.window_misses + 1);
  EXPECT_EQ(after.window_hits, 0u);
  EXPECT_EQ(after.partition_hits, before.partition_hits + 1);
  EXPECT_EQ(after.bound_misses, before.bound_misses + 1);
  EXPECT_GT(after.block_hits, before.block_hits);
  EXPECT_TRUE(warm == analyze(session.app()));
}

TEST(SessionStatsTest, DedicatedIlpReusedOnBoundPlateau) {
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  AnalysisSession session(*inst.app, options, &inst.platform);
  session.set_verify(true);
  const AnalysisResult& first = session.analyze();
  const Cost cost = first.dedicated_cost->total;

  // A tiny relaxation of one deadline typically leaves every LB_r row
  // unchanged; the ILP must then be served from the previous solve.
  session.set_deadline(0, inst.app->task(0).deadline + 1);
  const AnalysisResult& second = session.analyze();
  EXPECT_EQ(second.dedicated_cost->total, cost);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.cost_hits + stats.cost_misses, stats.queries);
  EXPECT_GE(stats.cost_hits, 1u);
}

TEST(SessionErrors, ReplicatesColdThrowBehaviour) {
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  AnalysisSession session(*inst.app, options, &inst.platform);
  session.analyze();
  session.set_platform(nullptr);
  EXPECT_THROW(session.analyze(), ModelError);
  // The session still serves queries once the platform returns.
  session.set_platform(&inst.platform);
  EXPECT_NO_THROW(session.analyze());
}

TEST(SessionErrors, OutOfRangeWindowDeltaIsRefusedAndRevertMatchesCold) {
  // A delta that drives a window out of the safe range is refused by the
  // windows stage itself (RTLB-E310); reverting it restores a session whose
  // next query equals a cold analyze() of the same model.
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  options.emit_certificates = true;
  AnalysisSession session(*inst.app, options, &inst.platform);
  session.analyze();
  const TaskId sink = session.app().dag().sinks().front();
  const Time deadline = session.app().task(sink).deadline;
  session.set_deadline(sink, kSafeTime + 1);
  try {
    session.analyze();
    ADD_FAILURE() << "a window beyond kSafeTime was not refused";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("RTLB-E310: LCT of task '" +
                                         session.app().task(sink).name + "'"),
              std::string::npos)
        << e.what();
  }
  session.set_deadline(sink, deadline);
  const AnalysisResult& warm = session.analyze();
  EXPECT_TRUE(warm == analyze(session.app(), options, &inst.platform));
}

// ---------------------------------------------------------------------------
// Workload sessions: template-level deltas must be indistinguishable from
// tearing the session down and cold-analyzing the mutated workload.

Workload control_workload(ResourceCatalog& cat) {
  const ResourceId cpu = cat.add_processor_type("CPU", 4);
  const ResourceId dsp = cat.add_processor_type("DSP", 9);
  Workload w;
  Transaction fast;
  fast.name = "fast";
  fast.period = 20;
  TemplateTask sense;
  sense.name = "sense";
  sense.comp = 3;
  sense.proc = cpu;
  TemplateTask act = sense;
  act.name = "act";
  act.comp = 2;
  fast.tasks = {sense, act};
  fast.edges = {{0, 1, 1}};
  Transaction slow;
  slow.name = "slow";
  slow.period = 40;
  TemplateTask crunch;
  crunch.name = "crunch";
  crunch.comp = 8;
  crunch.proc = dsp;
  slow.tasks = {crunch};
  w.transactions = {fast, slow};
  return w;
}

TEST(SessionWorkload, TemplateDeltasMatchColdReLowering) {
  ResourceCatalog cat;
  Workload w = control_workload(cat);
  AnalysisSession session(cat, w);
  session.set_verify(true);
  ASSERT_NE(session.workload(), nullptr);
  session.analyze();

  struct Delta {
    const char* what;
    void (*apply)(AnalysisSession&);
    void (*mirror)(Workload&);
  };
  const Delta deltas[] = {
      {"period", [](AnalysisSession& s) { s.set_transaction_period("fast", 10); },
       [](Workload& m) { m.transactions[0].period = 10; }},
      {"offset", [](AnalysisSession& s) { s.set_transaction_offset("slow", 5); },
       [](Workload& m) { m.transactions[1].offset = 5; }},
      {"comp", [](AnalysisSession& s) { s.set_template_comp("fast", "act", 4); },
       [](Workload& m) { m.transactions[0].tasks[1].comp = 4; }},
  };
  for (const Delta& d : deltas) {
    d.apply(session);
    d.mirror(w);
    const AnalysisResult& warm = session.analyze();
    const Application cold_app = lower_workload(cat, w);
    const AnalysisResult cold = analyze(cold_app);
    expect_same_result(session.app(), warm, cold, d.what);
    EXPECT_EQ(serialize_instance(session.app(), DedicatedPlatform{}),
              serialize_instance(cold_app, DedicatedPlatform{}))
        << d.what;
  }
}

TEST(SessionWorkload, NoOpTemplateDeltaIsAQueryHit) {
  ResourceCatalog cat;
  AnalysisSession session(cat, control_workload(cat));
  session.analyze();
  const SessionStats before = session.stats();
  session.set_transaction_period("fast", 20);   // current value
  session.set_template_comp("slow", "crunch", 8);
  session.analyze();
  const SessionStats after = session.stats();
  EXPECT_EQ(after.query_hits, before.query_hits + 1);
}

TEST(SessionWorkload, BadTemplateDeltaIsRefusedAndRolledBack) {
  ResourceCatalog cat;
  AnalysisSession session(cat, control_workload(cat));
  session.set_verify(true);
  session.analyze();
  const std::string before = serialize_instance(session.app(), DedicatedPlatform{});

  EXPECT_THROW(session.set_transaction_period("fast", 0), LintGateError);   // E501
  EXPECT_THROW(session.set_transaction_offset("fast", 25), LintGateError);  // E502
  EXPECT_THROW(session.set_template_comp("fast", "act", 0), LintGateError); // E001
  EXPECT_THROW(session.set_transaction_period("ghost", 5), ModelError);
  EXPECT_THROW(session.set_template_comp("fast", "ghost", 2), ModelError);

  // The refused deltas left the template set untouched: the wrapped
  // application is unchanged and the session still serves queries.
  EXPECT_EQ(serialize_instance(session.app(), DedicatedPlatform{}), before);
  EXPECT_EQ(session.workload()->transactions[0].period, 20);
  EXPECT_NO_THROW(session.analyze());
}

TEST(SessionWorkload, FlatSessionsRejectTemplateDeltas) {
  ProblemInstance inst = paper_example();
  AnalysisSession session(*inst.app);
  EXPECT_EQ(session.workload(), nullptr);
  EXPECT_THROW(session.set_transaction_period("x", 5), ModelError);
  EXPECT_THROW(session.set_transaction_offset("x", 1), ModelError);
  EXPECT_THROW(session.set_template_comp("x", "y", 2), ModelError);
}

TEST(SessionWorkload, GeneratedRecurrentWorkloadsSurviveDeltaSequences) {
  for (const ReleaseKind kind : {ReleaseKind::kPeriodic, ReleaseKind::kSporadic}) {
    WorkloadParams params;
    params.seed = kind == ReleaseKind::kSporadic ? 5 : 3;
    params.num_tasks = 12;
    ProblemInstance inst = generate_recurrent_instance(params, kind);
    AnalysisSession session(*inst.catalog, inst.workload);
    session.set_verify(true);
    session.analyze();
    Workload mirror = inst.workload;
    for (std::size_t i = 0; i < mirror.transactions.size(); ++i) {
      const Time p = mirror.transactions[i].period;
      session.set_transaction_period(mirror.transactions[i].name, p * 2);
      mirror.transactions[i].period = p * 2;
      const AnalysisResult& warm = session.analyze();
      const Application cold_app = lower_workload(*inst.catalog, mirror);
      const AnalysisResult cold = analyze(cold_app);
      expect_same_result(session.app(), warm, cold,
                         "txn " + std::to_string(i) + " kind " +
                             std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(SessionErrors, ReplaceApplicationKeepsTheBlockCacheUseful) {
  WorkloadParams params;
  params.num_tasks = 12;
  ProblemInstance a = generate_workload(params);
  AnalysisSession session(*a.app);
  session.set_verify(true);
  session.analyze();
  const SessionStats before = session.stats();

  // The same workload regenerated (identical seed): every block is
  // value-identical, so the replay is all hits even though task identities
  // belong to a brand-new Application.
  ProblemInstance b = generate_workload(params);
  session.replace_application(*b.app);
  session.analyze();
  const SessionStats after = session.stats();
  EXPECT_GT(after.block_hits, before.block_hits);
  EXPECT_EQ(after.block_misses, before.block_misses);
}

}  // namespace
}  // namespace rtlb
