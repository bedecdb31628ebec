// Certificate layer: emission, JSON round-trip, the independent checker, and
// the mutation-rejection contract.
//
// The load-bearing property: for every result the pipeline produces, the
// emitted certificate passes check_certificate() -- across models, engine
// configurations (serial / multi-threaded / memoized session), and random
// workload shapes. And the dual property: corrupting any single field of a
// valid certificate is REJECTED with the pinpointed side-condition, so the
// checker cannot be fooled by a certificate that merely looks right.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/analysis.hpp"
#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/model/io.hpp"
#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"
#include "src/verify/emit.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/taskset_gen.hpp"
#include "tests/wide_menu.hpp"

namespace rtlb {
namespace {

bool has_rule(const CheckReport& report, std::string_view rule_fragment) {
  for (const CheckFailure& f : report.failures) {
    if (f.rule.find(rule_fragment) != std::string::npos) return true;
  }
  return false;
}

std::string rules_of(const CheckReport& report) {
  std::string out;
  for (const CheckFailure& f : report.failures) out += f.rule + " ";
  return out;
}

AnalysisOptions checked_options(SystemModel model, bool joint = false) {
  AnalysisOptions options;
  options.model = model;
  options.joint_bounds = joint;
  options.check_certificates = true;
  return options;
}

// ---------------------------------------------------------------------------
// The paper's 15-task example: every configuration must self-certify.

TEST(CertifyPaper, EveryConfigurationSelfCertifies) {
  ProblemInstance inst = paper_example();
  for (const SystemModel model : {SystemModel::Shared, SystemModel::Dedicated}) {
    for (const bool joint : {false, true}) {
      const AnalysisResult result =
          analyze(*inst.app, checked_options(model, joint), &inst.platform);
      ASSERT_TRUE(result.certificate.has_value());
      ASSERT_TRUE(result.certificate_check.has_value());
      EXPECT_TRUE(result.certificate_check->valid)
          << result.certificate_check->summary();
      // The checker independently re-derived the paper's headline numbers.
      EXPECT_EQ(result.bounds[0].bound, paper_expected_bounds().lb_p1);
    }
  }
}

TEST(CertifyPaper, ReportSurfacesTheVerdict) {
  ProblemInstance inst = paper_example();
  const AnalysisResult checked =
      analyze(*inst.app, checked_options(SystemModel::Dedicated), &inst.platform);
  const Json report = report_json(*inst.app, checked);
  const Json* cert = report.find("certificate");
  ASSERT_NE(cert, nullptr);
  EXPECT_TRUE(cert->find("emitted")->as_bool());
  EXPECT_TRUE(cert->find("checked")->as_bool());
  EXPECT_TRUE(cert->find("valid")->as_bool());
  EXPECT_EQ(cert->find("failures")->size(), 0u);

  // With the feature off the key is absent and the report is unchanged.
  const AnalysisResult plain = analyze(*inst.app, {}, &inst.platform);
  EXPECT_EQ(report_json(*inst.app, plain).find("certificate"), nullptr);
}

// ---------------------------------------------------------------------------
// JSON round-trip: serialize -> parse -> re-check, and dump stability.

TEST(CertifyRoundTrip, PaperCertificateSurvivesJson) {
  ProblemInstance inst = paper_example();
  const AnalysisResult result =
      analyze(*inst.app, checked_options(SystemModel::Dedicated, true), &inst.platform);
  const Json doc = certificate_json(*result.certificate);
  const Certificate reparsed = parse_certificate_text(doc.dump(2));
  const CheckReport report = check_certificate(reparsed, *inst.app, &inst.platform);
  EXPECT_TRUE(report.valid) << report.summary();
  // Serialization is deterministic and lossless at the JSON level.
  EXPECT_EQ(certificate_json(reparsed).dump(2), doc.dump(2));
}

TEST(CertifyRoundTrip, GeneratedWorkloadsSurviveJson) {
  for (const GraphShape shape :
       {GraphShape::Layered, GraphShape::ForkJoin, GraphShape::Pipeline}) {
    WorkloadParams params;
    params.seed = 7 + static_cast<std::uint64_t>(shape);
    params.shape = shape;
    params.num_tasks = 16;
    params.preemptive_prob = 0.3;
    ProblemInstance inst = generate_workload(params);
    const AnalysisResult result =
        analyze(*inst.app, checked_options(SystemModel::Dedicated, true), &inst.platform);
    const Certificate reparsed =
        parse_certificate_text(certificate_json(*result.certificate).dump(2));
    const CheckReport report = check_certificate(reparsed, *inst.app, &inst.platform);
    EXPECT_TRUE(report.valid) << report.summary();
  }
}

// ---------------------------------------------------------------------------
// Every shipped example instance validates under check_certificates.

void check_shipped_instance(const std::string& name) {
  const std::string path = std::string(RTLB_SOURCE_DIR) + "/examples/instances/" + name;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  ProblemInstance inst = parse_instance(in);
  const DedicatedPlatform* platform =
      inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;
  const SystemModel model = platform ? SystemModel::Dedicated : SystemModel::Shared;
  for (const bool joint : {false, true}) {
    const AnalysisResult result =
        analyze(*inst.app, checked_options(model, joint), platform);
    EXPECT_TRUE(result.certificate_check->valid)
        << name << ": " << result.certificate_check->summary();
  }
}

TEST(CertifyShipped, EveryExampleInstanceValidates) {
  check_shipped_instance("paper.rtlb");
  check_shipped_instance("avionics.rtlb");
  check_shipped_instance("radar.rtlb");
}

// Windows past kTimeMax but inside the engine's [-kSafeTime, kSafeTime]:
// the checker accepts the whole range the engine guarantees.
TEST(CertifyRange, WindowsBeyondTimeMaxCheckValid) {
  const std::string path =
      std::string(RTLB_SOURCE_DIR) + "/examples/instances/bad/far_windows.rtlb";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  ProblemInstance inst = parse_instance(in);
  const AnalysisResult result = analyze(*inst.app, checked_options(SystemModel::Shared));
  EXPECT_GT(result.windows.lct[1], kTimeMax);
  ASSERT_TRUE(result.certificate_check.has_value());
  EXPECT_TRUE(result.certificate_check->valid) << result.certificate_check->summary();
  const CheckReport reparsed = check_certificate(
      parse_certificate_text(certificate_json(*result.certificate).dump()), *inst.app, nullptr);
  EXPECT_TRUE(reparsed.valid) << reparsed.summary();
}

// A menu wider than one host-mask word: the merge sets M_i = {x, y} and
// G_i = {u, v} need node type 69 (mask word 1). The certificate checks valid
// on that menu and its merge sets are refused once node type 69 is gone.
TEST(CertifyWideMenu, MergeSetsPastTheFirstMaskWord) {
  WideMenu m;
  const AnalysisResult result =
      analyze(m.app, checked_options(SystemModel::Dedicated), &m.wide);
  ASSERT_TRUE(result.certificate_check.has_value());
  EXPECT_TRUE(result.certificate_check->valid) << result.certificate_check->summary();
  EXPECT_EQ(result.certificate->windows[m.i].merged_pred.size(), 2u);
  const CheckReport narrow = check_certificate(*result.certificate, m.app, &m.narrow);
  EXPECT_FALSE(narrow.valid);
  EXPECT_TRUE(has_rule(narrow, "T1.merge-set")) << rules_of(narrow);
  EXPECT_TRUE(has_rule(narrow, "T2.merge-set")) << rules_of(narrow);
}

// ---------------------------------------------------------------------------
// Randomized corpus: 3 configurations x 3 seeds, certified on the serial,
// multi-threaded, and session-warm paths, with bit-identical bounds across
// all three.

TEST(CertifyCorpus, SerialParallelAndSessionAgreeAndCertify) {
  struct Config {
    SystemModel model;
    bool joint;
    GraphShape shape;
  };
  const Config configs[] = {
      {SystemModel::Shared, false, GraphShape::Random},
      {SystemModel::Dedicated, false, GraphShape::Layered},
      {SystemModel::Dedicated, true, GraphShape::SeriesParallel},
  };
  for (const Config& config : configs) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      WorkloadParams params;
      params.seed = seed;
      params.shape = config.shape;
      params.num_tasks = 18;
      params.preemptive_prob = 0.25;
      params.release_spread = 0.3;
      ProblemInstance inst = generate_workload(params);
      const DedicatedPlatform* platform =
          config.model == SystemModel::Dedicated ? &inst.platform : nullptr;

      AnalysisOptions serial = checked_options(config.model, config.joint);
      serial.lower_bound.num_threads = 1;
      AnalysisOptions threaded = serial;
      threaded.lower_bound.num_threads = 4;
      threaded.lower_bound.enable_pruning = true;

      const AnalysisResult cold = analyze(*inst.app, serial, platform);
      const AnalysisResult parallel = analyze(*inst.app, threaded, platform);

      // Session path: a cold query, a cache-hit query (re-judged), and a
      // no-op delta that exercises the revalidation path.
      AnalysisSession session(*inst.app, serial, platform);
      const AnalysisResult& warm1 = session.analyze();
      EXPECT_TRUE(warm1.certificate_check->valid);
      session.set_comp(0, inst.app->task(0).comp);  // no-op: stays cached
      const AnalysisResult& warm2 = session.analyze();
      EXPECT_TRUE(warm2.certificate_check->valid);

      ASSERT_EQ(cold.bounds.size(), parallel.bounds.size());
      ASSERT_EQ(cold.bounds.size(), warm2.bounds.size());
      for (std::size_t i = 0; i < cold.bounds.size(); ++i) {
        EXPECT_EQ(cold.bounds[i].bound, parallel.bounds[i].bound);
        EXPECT_EQ(cold.bounds[i].bound, warm2.bounds[i].bound);
        EXPECT_EQ(cold.bounds[i].witness_t1, warm2.bounds[i].witness_t1);
        EXPECT_EQ(cold.bounds[i].witness_t2, warm2.bounds[i].witness_t2);
      }
      EXPECT_TRUE(cold.certificate_check->valid) << cold.certificate_check->summary();
      EXPECT_TRUE(parallel.certificate_check->valid);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation rejection: corrupting any field of a valid certificate must be
// caught, with the failure pinpointing the violated side-condition.

class CertifyMutations : public ::testing::Test {
 protected:
  CertifyMutations() : inst_(paper_example()) {
    AnalysisOptions options;
    options.model = SystemModel::Dedicated;
    options.joint_bounds = true;
    options.emit_certificates = true;
    result_ = analyze(*inst_.app, options, &inst_.platform);
    cert_ = *result_.certificate;
  }

  /// Apply `mutate` to a copy of the valid certificate and expect the checker
  /// to reject it with a failure whose rule starts with `rule_prefix`.
  void expect_rejected(const std::string& label, std::string_view rule_prefix,
                       const std::function<void(Certificate&)>& mutate) {
    Certificate broken = cert_;
    mutate(broken);
    const CheckReport report = check_certificate(broken, *inst_.app, &inst_.platform);
    EXPECT_FALSE(report.valid) << label << ": mutation was accepted";
    EXPECT_TRUE(has_rule(report, rule_prefix))
        << label << ": expected a " << rule_prefix << " failure, got: " << rules_of(report);
  }

  ProblemInstance inst_;
  AnalysisResult result_;
  Certificate cert_;
};

TEST_F(CertifyMutations, ValidBaseline) {
  const CheckReport report = check_certificate(cert_, *inst_.app, &inst_.platform);
  EXPECT_TRUE(report.valid) << report.summary();
}

TEST_F(CertifyMutations, MetaFields) {
  expect_rejected("num_tasks", "meta.num-tasks", [](Certificate& c) { c.num_tasks += 1; });
  expect_rejected("window count", "meta.windows",
                  [](Certificate& c) { c.windows.pop_back(); });
  expect_rejected("est out of range", "meta.range",
                  [](Certificate& c) { c.windows[0].est = kSafeTime + 1; });
  expect_rejected("lct out of range", "meta.range",
                  [](Certificate& c) { c.windows[0].lct = -kSafeTime - 1; });
  // A dedicated certificate checked without a platform is a meta mismatch.
  const CheckReport report = check_certificate(cert_, *inst_.app, nullptr);
  EXPECT_FALSE(report.valid);
  EXPECT_TRUE(has_rule(report, "meta.platform")) << rules_of(report);
}

TEST_F(CertifyMutations, WindowFacts) {
  expect_rejected("est bumped", "T1.", [](Certificate& c) { c.windows[4].est += 1; });
  expect_rejected("est lowered", "T1.", [](Certificate& c) { c.windows[4].est -= 1; });
  expect_rejected("lct bumped", "T2.", [](Certificate& c) { c.windows[4].lct += 1; });
  expect_rejected("lct lowered", "T2.", [](Certificate& c) { c.windows[4].lct -= 1; });
  expect_rejected("bogus merge pred", "T1.",
                  [](Certificate& c) { c.windows[0].merged_pred.push_back(1); });
  // Task 14 merges preds {9, 10} (Section 8); claiming the empty set instead
  // must fail the prefix-minimality side-condition.
  expect_rejected("dropped merge set", "T1.",
                  [](Certificate& c) { c.windows[14].merged_pred.clear(); });
}

TEST_F(CertifyMutations, PartitionFacts) {
  expect_rejected("task dropped from block", "T5.",
                  [](Certificate& c) { c.partitions[0].blocks[0].pop_back(); });
  expect_rejected("task duplicated across blocks", "T5.", [](Certificate& c) {
    c.partitions[0].blocks.back().push_back(c.partitions[0].blocks[0][0]);
  });
  expect_rejected("separation fact tampered", "T5.separation",
                  [](Certificate& c) { c.partitions[0].separations[0].later_start -= 1; });
  expect_rejected("resource list tampered", "T5.resources",
                  [](Certificate& c) { c.partitions.pop_back(); });
}

TEST_F(CertifyMutations, BoundWitnesses) {
  expect_rejected("bound bumped", "E6.3.ceil", [](Certificate& c) { c.bounds[0].bound += 1; });
  expect_rejected("negative bound", "E6.3.",
                  [](Certificate& c) { c.bounds[0].bound = -1; });
  expect_rejected("witness removed", "E6.3.witness-missing",
                  [](Certificate& c) { c.bounds[0].witness.reset(); });
  expect_rejected("psi term inflated", ".psi",
                  [](Certificate& c) { c.bounds[0].witness->terms[0].psi += 1; });
  expect_rejected("demand inflated", "E6.3.theta-sum",
                  [](Certificate& c) { c.bounds[0].witness->demand += 1; });
  expect_rejected("duplicate term", "E6.3.term-dup", [](Certificate& c) {
    c.bounds[0].witness->terms.push_back(c.bounds[0].witness->terms[0]);
  });
  expect_rejected("interval inverted", "E6.3.interval", [](Certificate& c) {
    std::swap(c.bounds[0].witness->t1, c.bounds[0].witness->t2);
  });
}

TEST_F(CertifyMutations, JointFacts) {
  ASSERT_TRUE(cert_.has_joint);
  ASSERT_FALSE(cert_.joint.empty());
  expect_rejected("joint bound bumped", "E6.3.ceil",
                  [](Certificate& c) { c.joint[0].bound += 1; });
  expect_rejected("joint pair inverted", "E6.3.pair",
                  [](Certificate& c) { std::swap(c.joint[0].a, c.joint[0].b); });
}

TEST_F(CertifyMutations, SharedCost) {
  expect_rejected("total inflated", "E7.1.sum",
                  [](Certificate& c) { c.shared_cost.total += 1; });
  expect_rejected("units tampered", "E7.1.term",
                  [](Certificate& c) { c.shared_cost.terms[0].units += 1; });
  expect_rejected("unit cost tampered", "E7.1.",
                  [](Certificate& c) { c.shared_cost.terms[0].unit_cost += 1; });
}

TEST_F(CertifyMutations, DedicatedCost) {
  ASSERT_TRUE(cert_.dedicated_cost.has_value());
  expect_rejected("total lowered", "E7.2.primal",
                  [](Certificate& c) { c.dedicated_cost->total -= 1; });
  expect_rejected("assembly tampered", "E7.2.primal",
                  [](Certificate& c) { c.dedicated_cost->node_counts[0] = 0; });
  expect_rejected("dual inflated", "E7.2.dual",
                  [](Certificate& c) { c.dedicated_cost->dual[0] += 1000.0; });
  expect_rejected("negative dual", "E7.2.dual",
                  [](Certificate& c) { c.dedicated_cost->dual[0] = -1.0; });
  expect_rejected("relaxation overstated", "E7.2.dual-value",
                  [](Certificate& c) { c.dedicated_cost->relaxation += 1.0; });
  expect_rejected("uncertifiable infeasibility", "E7.2.reason", [](Certificate& c) {
    c.dedicated_cost->feasible = false;
    c.dedicated_cost->infeasible_reason = "ilp-node-limit";
  });
  expect_rejected("bogus infeasibility claim", "E7.2.", [](Certificate& c) {
    c.dedicated_cost->feasible = false;
    c.dedicated_cost->infeasible_reason = "task-unhostable";
    c.dedicated_cost->detail_task = 0;
  });
}

// ---------------------------------------------------------------------------
// Structural rejection happens at parse time (exit 2 territory for the CLI),
// before the checker ever sees values.

TEST(CertifyFormat, ParseRejectsStructuralDamage) {
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  options.emit_certificates = true;
  const AnalysisResult result = analyze(*inst.app, options, &inst.platform);
  Json doc = certificate_json(*result.certificate);

  Json bad_version = Json::parse(doc.dump(0));
  bad_version.set("version", 99);
  EXPECT_THROW(parse_certificate(bad_version), CertificateFormatError);

  Json bad_model = Json::parse(doc.dump(0));
  bad_model.set("model", "hybrid");
  EXPECT_THROW(parse_certificate(bad_model), CertificateFormatError);

  Json bad_type = Json::parse(doc.dump(0));
  bad_type.set("num_tasks", "fifteen");
  EXPECT_THROW(parse_certificate(bad_type), CertificateFormatError);

  EXPECT_THROW(parse_certificate_text("{\"version\": 1"), JsonParseError);
}

}  // namespace
}  // namespace rtlb
