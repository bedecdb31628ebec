// Property suite for the flattened windows engine (src/core/est_lct.cpp).
//
// Three families of claims, each over generated workloads AND a hand-built
// tie-heavy fixture:
//  (1) Equivalence: compute_windows() == compute_windows_reference() -- the
//      arena/incremental-packing engine against the verbatim Figure 2/3
//      implementation, field for field (est, lct, merged_pred, merged_succ).
//      The merge loop's tie rules (candidate order, packing order,
//      tie-correction continue/break) are exactly where a refactor would
//      silently diverge, so the fixture stacks duplicate EST/LCT keys.
//  (2) Certificates: the emitted WindowFacts survive an emit -> serialize ->
//      parse -> independent-check round trip, and their JSON is
//      byte-identical across cold analyses (with a serial and a threaded
//      bound scan) and the warm-session path.
//  (3) Range: the E310 refusal names the first out-of-range task in sweep
//      order, and the slack of every accepted window fits in Time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/analysis.hpp"
#include "src/core/est_lct.hpp"
#include "src/core/session.hpp"
#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"
#include "src/workload/taskset_gen.hpp"
#include "tests/wide_menu.hpp"

namespace rtlb {
namespace {

/// The generator configs the suite sweeps (x3 seeds each): a dense layered
/// DAG with tight deadlines (the bench shape), a fork-join with heavy
/// messages (merge-set churn on both sides), and a sparse random DAG with
/// spread releases (deep topological levels).
std::vector<WorkloadParams> suite_configs() {
  std::vector<WorkloadParams> configs;
  {
    WorkloadParams p;
    p.shape = GraphShape::Layered;
    p.num_tasks = 64;
    p.num_layers = 5;
    p.edge_prob = 0.3;
    p.laxity = 1.3;
    configs.push_back(p);
  }
  {
    WorkloadParams p;
    p.shape = GraphShape::ForkJoin;
    p.num_tasks = 48;
    p.msg_max = 12;
    p.laxity = 2.0;
    configs.push_back(p);
  }
  {
    WorkloadParams p;
    p.shape = GraphShape::Random;
    p.num_tasks = 80;
    p.edge_prob = 0.1;
    p.laxity = 1.6;
    p.release_spread = 0.5;
    configs.push_back(p);
  }
  return configs;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(WindowsProperty, FlatEngineMatchesReference) {
  for (const WorkloadParams& base : suite_configs()) {
    for (std::uint64_t seed : kSeeds) {
      WorkloadParams p = base;
      p.seed = seed;
      const ProblemInstance inst = generate_workload(p);
      SharedMergeOracle oracle;
      const TaskWindows flat = compute_windows(*inst.app, oracle);
      const TaskWindows ref = compute_windows_reference(*inst.app, oracle);
      EXPECT_EQ(flat, ref) << "shape " << static_cast<int>(p.shape) << " seed " << seed;
    }
  }
}

// Menus wider than one host-mask word. On the fixture, only node type 69
// (word 1) lets Figures 2/3 merge i's predecessors and successors whole. On
// the generated workloads, 64 node types of a processor no task uses are put
// in front of the menu, so every host sits past the first word and the
// windows must not change.
TEST(WindowsProperty, MultiWordMenusMatchReference) {
  WideMenu m;
  for (const DedicatedPlatform* plat : {&m.wide, &m.narrow}) {
    DedicatedMergeOracle oracle(*plat);
    const TaskWindows ref = compute_windows_reference(m.app, oracle);
    EXPECT_EQ(compute_windows(m.app, oracle), ref);
  }
  const TaskWindows wide = compute_windows(m.app, DedicatedMergeOracle(m.wide));
  EXPECT_EQ(wide.est[m.i], 4);
  EXPECT_EQ(wide.lct[m.i], 96);
  EXPECT_EQ(wide.merged_pred[m.i], (std::vector<TaskId>{m.x, m.y}));
  EXPECT_EQ(wide.merged_succ[m.i].size(), 2u);
  const TaskWindows narrow = compute_windows(m.app, DedicatedMergeOracle(m.narrow));
  EXPECT_EQ(narrow.est[m.i], 12);
  EXPECT_EQ(narrow.lct[m.i], 88);

  for (const WorkloadParams& base : suite_configs()) {
    for (std::uint64_t seed : kSeeds) {
      WorkloadParams p = base;
      p.seed = seed;
      ProblemInstance inst = generate_workload(p);
      const ResourceId pad = inst.catalog->add_processor_type("PAD");
      DedicatedPlatform padded;
      for (int n = 0; n < 64; ++n) padded.add_node_type(NodeType{"pad", pad, {}, 1});
      for (const NodeType& node : inst.platform.node_types()) padded.add_node_type(node);
      DedicatedMergeOracle oracle(padded);
      const TaskWindows flat = compute_windows(*inst.app, oracle);
      EXPECT_EQ(flat, compute_windows_reference(*inst.app, oracle));
      EXPECT_EQ(flat, compute_windows(*inst.app, DedicatedMergeOracle(inst.platform)))
          << "shape " << static_cast<int>(p.shape) << " seed " << seed;
    }
  }
}

TEST(WindowsProperty, CertificateRoundTripsPerInstance) {
  AnalysisOptions options;
  options.emit_certificates = true;
  for (const WorkloadParams& base : suite_configs()) {
    for (std::uint64_t seed : kSeeds) {
      WorkloadParams p = base;
      p.seed = seed;
      const ProblemInstance inst = generate_workload(p);
      const AnalysisResult result = analyze(*inst.app, options);
      ASSERT_TRUE(result.certificate.has_value());
      const Certificate reparsed =
          parse_certificate_text(certificate_json(*result.certificate).dump(2));
      const CheckReport report = check_certificate(reparsed, *inst.app, nullptr);
      EXPECT_TRUE(report.valid) << "shape " << static_cast<int>(p.shape) << " seed "
                                << seed << ": " << report.summary();
    }
  }
}

/// Fixture with deliberately duplicated EST/LCT keys: four identical fork
/// branches (same comp, release, deadline, message size, processor type)
/// between a common source and sink. Every candidate-sort key, packing key,
/// and merge-gain comparison ties across the branches, so the windows -- and
/// the merge sets the certificate reports -- are determined purely by the
/// documented id tie-breaks.
class WindowsTieBreakTest : public ::testing::Test {
 protected:
  WindowsTieBreakTest() : app_(cat_) {
    const ResourceId p1 = cat_.add_processor_type("P1");
    Task src;
    src.name = "src";
    src.comp = 3;
    src.release = 0;
    src.deadline = 60;
    src.proc = p1;
    const TaskId a = app_.add_task(std::move(src));
    std::vector<TaskId> mid;
    for (int k = 0; k < 4; ++k) {
      Task t;
      t.name = "m" + std::to_string(k);
      t.comp = 2;
      t.release = 0;
      t.deadline = 40;
      t.proc = p1;
      mid.push_back(app_.add_task(std::move(t)));
    }
    Task sink;
    sink.name = "sink";
    sink.comp = 2;
    sink.release = 0;
    sink.deadline = 60;
    sink.proc = p1;
    const TaskId z = app_.add_task(std::move(sink));
    for (TaskId m : mid) {
      app_.add_edge(a, m, 10);  // large message: merging pays on the LCT side
      app_.add_edge(m, z, 10);  // and on the EST side
    }
  }

  ResourceCatalog cat_;
  Application app_;
};

TEST_F(WindowsTieBreakTest, DuplicateKeysResolveIdenticallyAcrossPaths) {
  SharedMergeOracle oracle;
  // The reference implementation pins the documented tie-break semantics.
  EXPECT_EQ(compute_windows(app_, oracle), compute_windows_reference(app_, oracle));
}

TEST_F(WindowsTieBreakTest, CertificatesByteIdenticalAcrossSerialParallelAndWarmSession) {
  AnalysisOptions serial_options;
  serial_options.emit_certificates = true;
  const AnalysisResult cold = analyze(app_, serial_options);
  ASSERT_TRUE(cold.certificate.has_value());
  const std::string cold_cert = certificate_json(*cold.certificate).dump(2);

  AnalysisOptions parallel_options = serial_options;
  parallel_options.lower_bound.num_threads = 4;
  const AnalysisResult parallel = analyze(app_, parallel_options);
  ASSERT_TRUE(parallel.certificate.has_value());
  EXPECT_EQ(cold.windows, parallel.windows);
  EXPECT_EQ(cold_cert, certificate_json(*parallel.certificate).dump(2));

  // Warm-session path: perturb a deadline (invalidating the memoized
  // windows), revert it, and re-query -- the recomputed-in-session result
  // must be byte-identical to the cold one.
  AnalysisSession session(app_, parallel_options);
  session.analyze();
  session.set_deadline(1, 50);
  session.analyze();
  session.set_deadline(1, 40);
  const AnalysisResult& warm = session.analyze();
  ASSERT_TRUE(warm.certificate.has_value());
  EXPECT_EQ(cold.windows, warm.windows);
  EXPECT_EQ(cold_cert, certificate_json(*warm.certificate).dump(2));
}

/// The message of the ModelError compute_windows() throws, or "" if none.
std::string refusal(const Application& app) {
  SharedMergeOracle oracle;
  try {
    compute_windows(app, oracle);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(WindowsRange, OutOfRangeRefusalNamesTheFirstEstTaskInTopologicalOrder) {
  // Eight 3-task chains, one processor type per layer (so nothing merges).
  // Chains 5 and 6 carry kTimeMax computation times and messages, which
  // pushes the ESTs of x2_5/x2_6 and the LCTs of x0_5/x0_6 out of the safe
  // range. The EST side is swept first, so the refusal names x2_5.
  ResourceCatalog cat;
  Application app(cat);
  std::vector<ResourceId> procs;
  for (int layer = 0; layer < 3; ++layer) {
    procs.push_back(cat.add_processor_type("P" + std::to_string(layer)));
  }
  for (int layer = 0; layer < 3; ++layer) {
    for (int chain = 0; chain < 8; ++chain) {
      const bool huge = chain == 5 || chain == 6;
      Task t;
      t.name = "x" + std::to_string(layer) + "_" + std::to_string(chain);
      t.comp = huge ? kTimeMax : 2;
      t.release = 0;
      t.deadline = huge ? kTimeMax : 100;
      t.proc = procs[static_cast<std::size_t>(layer)];
      const TaskId id = app.add_task(std::move(t));
      if (layer > 0) app.add_edge(id - 8, id, huge ? kTimeMax : 1);
    }
  }
  const std::string message = refusal(app);
  EXPECT_NE(message.find("RTLB-E310: EST of task 'x2_5'"), std::string::npos) << message;
}

TEST(WindowsRange, LctRefusalNamesTheFirstTaskInReverseTopologicalOrder) {
  // Four 3-task chains, one processor type per layer (so nothing merges),
  // added layer by layer: the topological order is x0_0..x0_3, x1_0..x1_3,
  // x2_0..x2_3. The sinks of chains 1 and 2 are due 5 ticks past -kSafeTime
  // but take 10, so the LCTs of x1_1, x1_2, x0_1 and x0_2 fall below the
  // safe range while every EST stays small. Reverse topologically x1_2 comes
  // first: neither the lowest out-of-range id nor the first in forward order.
  ResourceCatalog cat;
  Application app(cat);
  std::vector<ResourceId> procs;
  for (int layer = 0; layer < 3; ++layer) {
    procs.push_back(cat.add_processor_type("P" + std::to_string(layer)));
  }
  for (int layer = 0; layer < 3; ++layer) {
    for (int chain = 0; chain < 4; ++chain) {
      const bool early_sink = layer == 2 && (chain == 1 || chain == 2);
      Task t;
      t.name = "x" + std::to_string(layer) + "_" + std::to_string(chain);
      t.comp = early_sink ? 10 : 2;
      t.release = 0;
      t.deadline = early_sink ? -kSafeTime + 5 : 100;
      t.proc = procs[static_cast<std::size_t>(layer)];
      const TaskId id = app.add_task(std::move(t));
      if (layer > 0) app.add_edge(id - 4, id, 1);
    }
  }
  const std::string message = refusal(app);
  EXPECT_EQ(message.rfind("RTLB-E310: LCT of task 'x1_2' leaves the safe Time range", 0), 0u)
      << message;
}

TEST(WindowsRange, StepOneEndpointsAreRangeChecked) {
  // Sources and sinks take r_i / d_i verbatim; they are checked too, and the
  // range is inclusive at +-kSafeTime.
  ResourceCatalog cat;
  const ResourceId cpu = cat.add_processor_type("CPU");
  auto solo = [&](Time release, Time deadline) {
    Application app(cat);
    Task t;
    t.name = "solo";
    t.comp = 1;
    t.release = release;
    t.deadline = deadline;
    t.proc = cpu;
    app.add_task(std::move(t));
    return refusal(app);
  };
  EXPECT_EQ(solo(-kSafeTime, kSafeTime), "");
  EXPECT_NE(solo(0, kSafeTime + 1).find("RTLB-E310: LCT of task 'solo'"), std::string::npos);
  EXPECT_NE(solo(-kSafeTime - 1, 10).find("RTLB-E310: EST of task 'solo'"),
            std::string::npos);
}

TEST(WindowsRange, SlackFitsInTimeAtTheSafeRangeCorners) {
  // TaskWindows::slack's bound, -2 kSafeTime <= slack <= 2 kSafeTime, met
  // with equality on the low side by a model that validates (an overflowing
  // subtraction here is a UBSan report under tools/sanitize.sh). Edge a -> b
  // on two processor types (so nothing merges), zero message, each window
  // exactly as wide as its computation time:
  //  - a: [0, kSafeTime], C_a = kSafeTime; L_a = L_b - C_b = -kSafeTime.
  //  - b: [-kSafeTime, 0], C_b = kSafeTime; E_b = E_a + C_a = kSafeTime.
  // Both slacks are -kSafeTime - kSafeTime. An isolated task spanning the
  // whole range reaches 2 kSafeTime - 1.
  ResourceCatalog cat;
  const ResourceId p0 = cat.add_processor_type("P0");
  const ResourceId p1 = cat.add_processor_type("P1");
  Application app(cat);
  auto add = [&](const char* name, Time comp, Time release, Time deadline, ResourceId proc) {
    Task t;
    t.name = name;
    t.comp = comp;
    t.release = release;
    t.deadline = deadline;
    t.proc = proc;
    return app.add_task(std::move(t));
  };
  const TaskId a = add("a", kSafeTime, 0, kSafeTime, p0);
  const TaskId b = add("b", kSafeTime, -kSafeTime, 0, p1);
  const TaskId solo = add("solo", 1, -kSafeTime, kSafeTime, p0);
  app.add_edge(a, b, 0);
  ASSERT_NO_THROW(app.validate());
  const TaskWindows w = compute_windows(app, SharedMergeOracle());
  EXPECT_EQ(w.est[b], kSafeTime);
  EXPECT_EQ(w.lct[a], -kSafeTime);
  EXPECT_EQ(w.slack(app, a), -2 * kSafeTime);
  EXPECT_EQ(w.slack(app, b), -2 * kSafeTime);
  EXPECT_EQ(w.slack(app, solo), 2 * kSafeTime - 1);
}

}  // namespace
}  // namespace rtlb
