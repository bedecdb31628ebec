#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/analysis.hpp"
#include "src/lint/absint.hpp"
#include "src/lint/fixit.hpp"
#include "src/lint/linter.hpp"
#include "src/lint/passes.hpp"
#include "src/lint/recurrent.hpp"
#include "src/model/io.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/taskset_gen.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {
namespace {

std::set<std::string> codes_of(const LintResult& result) {
  std::set<std::string> codes;
  for (const Diagnostic& d : result.diagnostics) codes.insert(d.code);
  return codes;
}

int count_code(const LintResult& result, std::string_view code) {
  int n = 0;
  for (const Diagnostic& d : result.diagnostics) n += d.code == code;
  return n;
}

/// The running union of every code produced anywhere in this file; the
/// EveryRegisteredCodeIsExercised test checks it against the registry.
std::set<std::string>& exercised() {
  static std::set<std::string> codes;
  return codes;
}

LintResult lint_and_track(const Application& app, const DedicatedPlatform* platform = nullptr,
                          const SourceMap* lines = nullptr, const LintOptions& options = {}) {
  LintResult result = lint(app, platform, lines, options);
  for (const std::string& c : codes_of(result)) exercised().insert(c);
  return result;
}

Task make_task(std::string name, Time comp, Time release, Time deadline, ResourceId proc,
               std::vector<ResourceId> resources = {}) {
  Task t;
  t.name = std::move(name);
  t.comp = comp;
  t.release = release;
  t.deadline = deadline;
  t.proc = proc;
  t.resources = std::move(resources);
  return t;
}

class LintTest : public ::testing::Test {
 protected:
  LintTest() : app_(catalog_) {
    cpu_ = catalog_.add_processor_type("CPU", 10);
    dsp_ = catalog_.add_processor_type("DSP", 25);
    camera_ = catalog_.add_resource("camera", 30);
  }

  ResourceCatalog catalog_;
  Application app_;
  ResourceId cpu_, dsp_, camera_;
};

TEST(DiagnosticRegistry, CodesAreUniqueAndSeverityMatchesLetter) {
  std::set<std::string> seen;
  for (const DiagInfo& info : all_diag_info()) {
    EXPECT_TRUE(seen.insert(info.code).second) << info.code;
    ASSERT_EQ(std::string(info.code).size(), 9u) << info.code;
    const char letter = info.code[5];  // RTLB-X###
    switch (info.severity) {
      case Severity::kError: EXPECT_EQ(letter, 'E') << info.code; break;
      case Severity::kWarning: EXPECT_EQ(letter, 'W') << info.code; break;
      case Severity::kNote: EXPECT_EQ(letter, 'N') << info.code; break;
    }
    const DiagInfo* found = diag_info(info.code);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &info);
    EXPECT_GT(std::string(info.summary).size(), 0u);
    EXPECT_GT(std::string(info.fixit).size(), 0u);
  }
  EXPECT_EQ(diag_info("RTLB-E999"), nullptr);
}

TEST_F(LintTest, StructuralPassFlagsEveryViolation) {
  app_.add_task(make_task("zero-comp", 0, 0, 10, cpu_));                  // E001
  app_.add_task(make_task("bad-proc", 1, 0, 10, 99));                     // E002
  app_.add_task(make_task("res-as-proc", 1, 0, 10, camera_));             // E003
  app_.add_task(make_task("bad-res", 1, 0, 10, cpu_, {99}));              // E004
  app_.add_task(make_task("proc-in-res", 1, 0, 10, cpu_, {dsp_}));        // E005
  app_.add_task(make_task("zero-comp", 1, 0, 10, cpu_));                  // E006 (duplicate)
  const TaskId a = app_.add_task(make_task("a", 1, 0, 10, cpu_));
  const TaskId b = app_.add_task(make_task("b", 1, 0, 10, cpu_));
  app_.add_edge(a, b, 1);
  app_.add_edge(b, a, 1);                                                 // E007
  app_.add_task(make_task("inverted", 1, 9, 3, cpu_));                    // E008
  app_.add_task(make_task("tight", 5, 8, 10, cpu_));                      // E009

  const LintResult result = lint_and_track(app_);
  const std::set<std::string> expected{"RTLB-E001", "RTLB-E002", "RTLB-E003", "RTLB-E004",
                                       "RTLB-E005", "RTLB-E006", "RTLB-E007", "RTLB-E008",
                                       "RTLB-E009"};
  EXPECT_EQ(codes_of(result), expected);
  EXPECT_EQ(result.errors, 9);
  // Structurally broken instances run no model-interpreting pass.
  EXPECT_EQ(result.warnings, 0);
  EXPECT_EQ(result.notes, 0);
}

TEST_F(LintTest, ValidateDelegatesAndKeepsWording) {
  app_.add_task(make_task("bad", 0, 0, 10, cpu_));
  try {
    app_.validate();
    FAIL() << "validate() did not throw";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "task 'bad' (#0): computation time must be positive");
  }

  Application cyclic(catalog_);
  const TaskId a = cyclic.add_task(make_task("a", 1, 0, 10, cpu_));
  const TaskId b = cyclic.add_task(make_task("b", 1, 0, 10, cpu_));
  cyclic.add_edge(a, b, 0);
  cyclic.add_edge(b, a, 0);
  try {
    cyclic.validate();
    FAIL() << "validate() did not throw";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "precedence graph has a cycle");
  }

  Application tight(catalog_);
  tight.add_task(make_task("tight", 5, 8, 10, cpu_));
  try {
    tight.validate();
    FAIL() << "validate() did not throw";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "task 'tight' (#0): window [rel, D] shorter than computation time");
  }
}

TEST_F(LintTest, TemporalPassCertifiesWindowCollapse) {
  // Case 1 of examples/infeasibility_triage.cpp: the chain
  // capture(4) + msg(3) + detect(9) + msg(2) + alert(2) = 20 > deadline 16.
  const TaskId capture = app_.add_task(make_task("capture", 4, 0, 40, cpu_, {camera_}));
  const TaskId detect = app_.add_task(make_task("detect", 9, 0, 40, dsp_));
  const TaskId alert = app_.add_task(make_task("alert", 2, 0, 16, cpu_));
  app_.add_edge(capture, detect, 3);
  app_.add_edge(detect, alert, 2);

  const LintResult result = lint_and_track(app_);
  EXPECT_TRUE(result.has_errors());
  EXPECT_GE(count_code(result, "RTLB-E101"), 1);
  bool alert_flagged = false;
  for (const Diagnostic& d : result.diagnostics) {
    alert_flagged |= d.code == "RTLB-E101" && d.task == alert;
  }
  EXPECT_TRUE(alert_flagged);
}

TEST_F(LintTest, TemporalPassWarnsOnZeroSlackNonPreemptive) {
  app_.add_task(make_task("exact", 5, 0, 5, cpu_));  // window exactly C, not preemptive
  const LintResult result = lint_and_track(app_);
  EXPECT_FALSE(result.has_errors());
  EXPECT_EQ(count_code(result, "RTLB-W102"), 1);

  // The same window on a preemptive task gets the W103 sibling instead: the
  // window is saturated, so preemption offers no real flexibility.
  Application preemptible(catalog_);
  Task t = make_task("exact", 5, 0, 5, cpu_);
  t.preemptive = true;
  preemptible.add_task(t);
  const LintResult tight = lint_and_track(preemptible);
  EXPECT_EQ(count_code(tight, "RTLB-W102"), 0);
  EXPECT_EQ(count_code(tight, "RTLB-W103"), 1);
  EXPECT_FALSE(tight.has_errors());
}

TEST_F(LintTest, PlatformCoverageChecks) {
  app_.add_task(make_task("capture", 4, 0, 40, cpu_, {camera_}));
  // dsp_ is declared but unused -> W201.
  const LintResult shared = lint_and_track(app_);
  EXPECT_EQ(count_code(shared, "RTLB-W201"), 1);
  EXPECT_FALSE(shared.has_errors());

  DedicatedPlatform platform;
  platform.add_node_type(NodeType{"bare", cpu_, {}, 12});
  const LintResult dedicated = lint_and_track(app_, &platform);
  EXPECT_EQ(count_code(dedicated, "RTLB-E202"), 1);  // capture has no host
  EXPECT_EQ(count_code(dedicated, "RTLB-W203"), 1);  // 'bare' hosts nothing
  EXPECT_TRUE(dedicated.has_errors());

  platform.add_node_type(NodeType{"cpu+camera", cpu_, {{camera_, 1}}, 45});
  const LintResult fixed = lint_and_track(app_, &platform);
  EXPECT_EQ(count_code(fixed, "RTLB-E202"), 0);
  EXPECT_EQ(count_code(fixed, "RTLB-W203"), 1);  // 'bare' still hosts nothing
}

TEST_F(LintTest, NumericSafetyChecks) {
  for (int k = 0; k < 5; ++k) {
    app_.add_task(make_task("t" + std::to_string(k), kTimeMax, 0, kTimeMax, cpu_));
  }
  app_.add_task(make_task("big", 1, 0, 2 * kTimeMax, cpu_));
  const LintResult result = lint_and_track(app_);
  EXPECT_GE(count_code(result, "RTLB-E301"), 1);  // 5 * kTimeMax overflows
  EXPECT_EQ(count_code(result, "RTLB-W302"), 1);  // 'big' deadline beyond kTimeMax
  // With windows uncomputable, the temporal pass must not fire (or crash).
  EXPECT_EQ(count_code(result, "RTLB-E101"), 0);
}

TEST_F(LintTest, HygieneChecks) {
  const TaskId a = app_.add_task(make_task("a", 2, 0, 20, cpu_));
  const TaskId b = app_.add_task(make_task("b", 2, 0, 20, cpu_));
  app_.add_task(make_task("island", 2, 0, 20, cpu_));  // W401
  app_.add_edge(a, b, 0);                              // N402
  const LintResult result = lint_and_track(app_);
  EXPECT_EQ(count_code(result, "RTLB-W401"), 1);
  EXPECT_EQ(count_code(result, "RTLB-N402"), 1);
  EXPECT_GE(count_code(result, "RTLB-N403"), 1);  // ST_CPU is one block
  EXPECT_FALSE(result.has_errors());

  // An application with no edges at all is a plain independent task set;
  // nothing is "isolated" relative to a precedence structure.
  Application independent(catalog_);
  independent.add_task(make_task("x", 2, 0, 20, cpu_));
  independent.add_task(make_task("y", 2, 0, 20, cpu_));
  EXPECT_EQ(count_code(lint_and_track(independent), "RTLB-W401"), 0);
}

TEST_F(LintTest, AbsIntWarnsWhenWideFanInMayOverflow) {
  // A diamond with 8 parallel middle tasks: the EST upper envelope at the
  // sink adds EVERY predecessor's computation (any subset might merge), so
  // est_hi ~ 8 * kTimeMax/3 > kSafeTime, while the lower envelope (one
  // chain) stays tiny -- the interpretation cannot prove safety but cannot
  // prove overflow either: W311, not E310.
  const TaskId src = app_.add_task(make_task("src", 1, 0, kTimeMax, cpu_));
  const TaskId sink = app_.add_task(make_task("sink", 1, 0, kTimeMax, cpu_));
  for (int k = 0; k < 8; ++k) {
    const TaskId mid =
        app_.add_task(make_task("mid" + std::to_string(k), kTimeMax / 3, 0, kTimeMax, cpu_));
    app_.add_edge(src, mid, 0);
    app_.add_edge(mid, sink, 0);
  }
  const LintResult result = lint_and_track(app_);
  EXPECT_EQ(count_code(result, "RTLB-E310"), 0);
  EXPECT_EQ(count_code(result, "RTLB-E301"), 0);  // exact demand sum fits
  EXPECT_EQ(count_code(result, "RTLB-W311"), 1);
  EXPECT_EQ(abstract_interpret(app_).verdict, AbsVerdict::kMayOverflow);
  // absint only suspects the overflow; the engine's windows are in range,
  // so the lint computes them, says so, and hands them on.
  std::optional<TaskWindows> windows;
  for (const Diagnostic& d : lint(app_, nullptr, nullptr, {}, &windows).diagnostics) {
    if (d.code == "RTLB-W311") {
      EXPECT_NE(d.message.find("the computed windows stay within it"), std::string::npos);
    }
  }
  EXPECT_TRUE(windows.has_value());
}

TEST_F(LintTest, AbsIntWarnsWhenCostEnvelopeMayOverflow) {
  // Cost accumulation envelope: |cost_r| * demand_r overflows int64 long
  // before the Time-range guards (demand itself is tiny).
  ResourceCatalog cat;
  const ResourceId cpu = cat.add_processor_type("CPU", 1);
  const ResourceId sensor = cat.add_resource("sensor", kTimeMax);
  Application pricey(cat);
  pricey.add_task(make_task("t", 100, 0, 1000, cpu, {sensor}));
  const LintResult result = lint_and_track(pricey);
  EXPECT_EQ(count_code(result, "RTLB-W312"), 1);
  EXPECT_EQ(count_code(result, "RTLB-E301"), 0);
  EXPECT_TRUE(abstract_interpret(pricey).cost_may_overflow);
}

TEST_F(LintTest, DataflowNamesTheChainDeterminingAWindow) {
  // b's window is fully inherited: est(b) = 3 > rel 0 through a, and
  // lct(b) = 15 < D = 100 through c -- N422 names the a -> b -> c chain.
  const TaskId a = app_.add_task(make_task("a", 2, 0, 100, cpu_));
  const TaskId b = app_.add_task(make_task("b", 3, 0, 100, cpu_));
  const TaskId c = app_.add_task(make_task("c", 4, 0, 20, cpu_));
  app_.add_edge(a, b, 1);
  app_.add_edge(b, c, 1);
  const LintResult result = lint_and_track(app_);
  ASSERT_EQ(count_code(result, "RTLB-N422"), 1);
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code != "RTLB-N422") continue;
    EXPECT_EQ(d.task, b);
    EXPECT_NE(d.message.find("a -> b -> c"), std::string::npos) << d.message;
  }
}

TEST_F(LintTest, MaxErrorsCapAndWerror) {
  for (int k = 0; k < 4; ++k) {
    app_.add_task(make_task("t" + std::to_string(k), 0, 0, 10, cpu_));  // 4x E001
  }
  const LintResult capped = lint_and_track(app_, nullptr, nullptr, {.max_errors = 2});
  EXPECT_EQ(capped.errors, 2);
  EXPECT_TRUE(capped.truncated);
  EXPECT_EQ(capped.diagnostics.size(), 2u);

  Application warny(catalog_);
  warny.add_task(make_task("only-cpu", 2, 0, 20, cpu_));  // dsp_, camera_ unused -> 2x W201
  const LintResult plain = lint_and_track(warny);
  EXPECT_EQ(plain.errors, 0);
  EXPECT_EQ(plain.warnings, 2);
  const LintResult werror = lint_and_track(warny, nullptr, nullptr, {.werror = true});
  EXPECT_EQ(werror.errors, 2);
  EXPECT_EQ(werror.warnings, 0);
}

TEST_F(LintTest, GoldenTextOutput) {
  app_.add_task(make_task("tight", 5, 8, 10, cpu_));
  const LintResult result = lint_and_track(app_);
  EXPECT_EQ(format_lint_text(result, "f.rtlb"),
            "f.rtlb: error: task 'tight' (#0): window [rel, D] shorter than computation time"
            " [RTLB-E009]\n"
            "  hint: relax the deadline or release so that deadline - rel >= comp\n"
            "1 error(s), 0 warning(s), 0 note(s)\n");
}

TEST_F(LintTest, GoldenJsonOutput) {
  app_.add_task(make_task("tight", 5, 8, 10, cpu_));
  LintResult result = lint_and_track(app_);
  result.diagnostics[0].hint.clear();  // keep the golden line readable
  EXPECT_EQ(lint_json(result).dump(),
            "{\"errors\":1,\"warnings\":0,\"notes\":0,\"truncated\":false,"
            "\"diagnostics\":[{\"code\":\"RTLB-E009\",\"severity\":\"error\","
            "\"subject\":\"task 'tight' (#0)\","
            "\"message\":\"window [rel, D] shorter than computation time\","
            "\"hint\":\"\",\"line\":0}]}");
}

TEST_F(LintTest, PreflightGateRefusesAndRecords) {
  // Window-collapse chain: a semantic (E1xx) error, structurally fine.
  const TaskId a = app_.add_task(make_task("a", 4, 0, 40, cpu_));
  const TaskId b = app_.add_task(make_task("b", 2, 0, 5, cpu_));
  app_.add_edge(a, b, 3);  // 4 + 3 + 2 = 9 > 5

  AnalysisOptions off;  // kOff: the historical pipeline analyzes it
  const AnalysisResult loose = analyze(app_, off);
  EXPECT_TRUE(loose.infeasible(app_));
  EXPECT_FALSE(loose.lint.has_value());

  AnalysisOptions report;
  report.lint_level = LintLevel::kReport;  // records, analyzes anyway
  const AnalysisResult recorded = analyze(app_, report);
  ASSERT_TRUE(recorded.lint.has_value());
  EXPECT_GE(count_code(*recorded.lint, "RTLB-E101"), 1);
  EXPECT_EQ(recorded.bounds.size(), loose.bounds.size());

  AnalysisOptions gate;
  gate.lint_level = LintLevel::kErrors;  // refuses
  try {
    analyze(app_, gate);
    FAIL() << "gate did not refuse";
  } catch (const LintGateError& e) {
    EXPECT_TRUE(e.result().has_errors());
    EXPECT_GE(count_code(e.result(), "RTLB-E101"), 1);
    EXPECT_NE(std::string(e.what()).find("RTLB-E101"), std::string::npos);
  }

  // kWarnings refuses instances that only warn (unused 'dsp'/'camera').
  Application warny(catalog_);
  warny.add_task(make_task("w", 2, 0, 20, cpu_));
  AnalysisOptions strict;
  strict.lint_level = LintLevel::kWarnings;
  EXPECT_THROW(analyze(warny, strict), LintGateError);
  AnalysisOptions errors_only;
  errors_only.lint_level = LintLevel::kErrors;
  EXPECT_NO_THROW(analyze(warny, errors_only));

  // Structural breakage is refused even at kReport (validate()'s refusal
  // set, batched).
  Application broken(catalog_);
  broken.add_task(make_task("zero", 0, 0, 10, cpu_));
  EXPECT_THROW(analyze(broken, report), LintGateError);
}

TEST(LintGate, CleanInstanceBoundsAreIdenticalOnAndOff) {
  ProblemInstance inst = paper_example();
  AnalysisOptions off;
  AnalysisOptions gated;
  gated.lint_level = LintLevel::kErrors;
  const AnalysisResult base = analyze(*inst.app, off, &inst.platform);
  const AnalysisResult checked = analyze(*inst.app, gated, &inst.platform);
  ASSERT_EQ(base.bounds.size(), checked.bounds.size());
  for (std::size_t i = 0; i < base.bounds.size(); ++i) {
    EXPECT_EQ(base.bounds[i].resource, checked.bounds[i].resource);
    EXPECT_EQ(base.bounds[i].bound, checked.bounds[i].bound);
    EXPECT_EQ(base.bounds[i].peak_density.num, checked.bounds[i].peak_density.num);
    EXPECT_EQ(base.bounds[i].peak_density.den, checked.bounds[i].peak_density.den);
    EXPECT_EQ(base.bounds[i].witness_t1, checked.bounds[i].witness_t1);
    EXPECT_EQ(base.bounds[i].witness_t2, checked.bounds[i].witness_t2);
    EXPECT_EQ(base.bounds[i].witness_demand, checked.bounds[i].witness_demand);
    EXPECT_EQ(base.bounds[i].intervals_evaluated, checked.bounds[i].intervals_evaluated);
  }
  EXPECT_EQ(base.shared_cost.total, checked.shared_cost.total);
  ASSERT_TRUE(checked.lint.has_value());
  EXPECT_FALSE(checked.lint->has_errors());
}

TEST(LintProperty, GeneratedInstancesNeverTripTheGate) {
  for (const GraphShape shape : {GraphShape::Layered, GraphShape::ForkJoin,
                                 GraphShape::SeriesParallel, GraphShape::Random}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      WorkloadParams params;
      params.seed = seed;
      params.shape = shape;
      params.num_tasks = 16;
      ProblemInstance inst = generate_workload(params);
      const LintResult result = lint(*inst.app, &inst.platform, &inst.lines);
      EXPECT_FALSE(result.has_errors())
          << "seed " << seed << " shape " << static_cast<int>(shape) << ":\n"
          << format_lint_text(result);

      AnalysisOptions gated;
      gated.lint_level = LintLevel::kErrors;
      AnalysisResult checked;
      ASSERT_NO_THROW(checked = analyze(*inst.app, gated, &inst.platform));
      const AnalysisResult base = analyze(*inst.app, {}, &inst.platform);
      ASSERT_EQ(base.bounds.size(), checked.bounds.size());
      for (std::size_t i = 0; i < base.bounds.size(); ++i) {
        EXPECT_EQ(base.bounds[i].bound, checked.bounds[i].bound);
        EXPECT_EQ(base.bounds[i].witness_t1, checked.bounds[i].witness_t1);
        EXPECT_EQ(base.bounds[i].witness_t2, checked.bounds[i].witness_t2);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The shipped bad-instance corpus (examples/instances/bad), shared with
// examples/infeasibility_triage.cpp and the rtlb_lint CLI.

LintResult lint_corpus_file(const std::string& name) {
  const std::string path = std::string(RTLB_SOURCE_DIR) + "/examples/instances/bad/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  ProblemInstance inst = parse_instance(in, ParseOptions{.validate = false});
  const DedicatedPlatform* platform =
      inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;
  LintResult result = lint(*inst.app, platform, &inst.lines);
  for (const std::string& c : codes_of(result)) exercised().insert(c);
  return result;
}

TEST(LintCorpus, EachBadInstanceCarriesItsExpectedCode) {
  struct Case {
    const char* file;
    const char* code;
    bool is_error;
  };
  const Case cases[] = {
      {"window_collapse.rtlb", "RTLB-E101", true},
      {"camera_contention.rtlb", "RTLB-W201", false},
      {"camera_contention.rtlb", "RTLB-N403", false},
      {"no_host.rtlb", "RTLB-E202", true},
      {"no_host.rtlb", "RTLB-W203", false},
      {"cycle.rtlb", "RTLB-E007", true},
      {"tight_window.rtlb", "RTLB-E008", true},
      {"tight_window.rtlb", "RTLB-E009", true},
      {"tight_preemptive.rtlb", "RTLB-W103", false},
      {"overflow.rtlb", "RTLB-E301", true},
      {"overflow.rtlb", "RTLB-W302", false},
      {"overflow_chain.rtlb", "RTLB-E310", true},
      {"overflow_chain.rtlb", "RTLB-W312", false},
      {"may_overflow_chain.rtlb", "RTLB-E301", true},
      {"may_overflow_chain.rtlb", "RTLB-W311", false},
      {"redundant_edge.rtlb", "RTLB-N421", false},
      {"dead_latency.rtlb", "RTLB-N423", false},
  };
  for (const Case& c : cases) {
    const LintResult result = lint_corpus_file(c.file);
    EXPECT_GE(count_code(result, c.code), 1) << c.file << " should carry " << c.code;
    if (c.is_error) {
      EXPECT_TRUE(result.has_errors()) << c.file;
    }
  }
}

TEST(LintCorpus, MayOverflowChainLintsWithoutWindows) {
  // The engine refuses this W311 chain's windows (RTLB-E310), so the lint
  // runs its model passes without them and its W311 says so.
  const LintResult result = lint_corpus_file("may_overflow_chain.rtlb");
  ASSERT_EQ(count_code(result, "RTLB-W311"), 1);
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == "RTLB-W311") {
      EXPECT_NE(d.message.find("so analysis refuses them (RTLB-E310)"), std::string::npos)
          << d.message;
    }
  }
}

TEST(LintCorpus, WideWindowIsNeitherInvertedNorShort) {
  // deadline - release is past INT64_MAX here: the window checks must read
  // the window as wide (no E008/E009), while the range passes still warn.
  const LintResult result = lint_corpus_file("wide_window.rtlb");
  EXPECT_GE(count_code(result, "RTLB-W302"), 1);
  EXPECT_EQ(count_code(result, "RTLB-W311"), 1);
  EXPECT_EQ(count_code(result, "RTLB-E008"), 0);
  EXPECT_EQ(count_code(result, "RTLB-E009"), 0);
}

TEST(LintCorpus, ErrorDiagnosticsOnTasksCarrySourceLines) {
  const LintResult result = lint_corpus_file("window_collapse.rtlb");
  ASSERT_TRUE(result.has_errors());
  for (const Diagnostic& d : result.diagnostics) {
    if (d.task != kInvalidTask) {
      EXPECT_GT(d.line, 0) << d.code;
    }
  }
}

TEST(LintCorpus, UnparseableInstanceBecomesE000) {
  const std::string path =
      std::string(RTLB_SOURCE_DIR) + "/examples/instances/bad/parse_error.rtlb";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  // The CLI maps the parse throw onto a synthetic RTLB-E000 finding; do the
  // same here so the corpus covers the code.
  LintResult result;
  DiagnosticSink sink(result, {});
  try {
    parse_instance(in, ParseOptions{.validate = false});
    FAIL() << "parse_error.rtlb parsed unexpectedly";
  } catch (const ModelError& e) {
    Diagnostic d = sink.make("RTLB-E000", "", e.what());
    d.line = 3;
    sink.emit(std::move(d));
  }
  EXPECT_EQ(count_code(result, "RTLB-E000"), 1);
  EXPECT_TRUE(result.has_errors());
  for (const std::string& c : codes_of(result)) exercised().insert(c);
}

TEST(LintCorpus, SourceMapRecordsDeclarationLines) {
  const std::string text =
      "proctype P1 cost 1\n"
      "# comment\n"
      "resource cam cost 7\n"
      "task a comp 1 deadline 10 proc P1 res cam\n"
      "task b comp 1 deadline 10 proc P1\n"
      "\n"
      "edge a b msg 2\n"
      "node N1 cost 3 proc P1 res cam:1\n";
  ProblemInstance inst = parse_instance_string(text);
  EXPECT_EQ(inst.lines.resource_line(0), 1);  // proctype P1
  EXPECT_EQ(inst.lines.resource_line(1), 3);  // resource cam
  EXPECT_EQ(inst.lines.task_line(0), 4);
  EXPECT_EQ(inst.lines.task_line(1), 5);
  EXPECT_EQ(inst.lines.edge_line(0, 1), 7);
  EXPECT_EQ(inst.lines.node_line(0), 8);
  EXPECT_EQ(inst.lines.task_line(99), 0);   // unknown ids map to "no line"
  EXPECT_EQ(inst.lines.resource_line(99), 0);
  EXPECT_EQ(inst.lines.edge_line(1, 0), 0);
}

// ---------------------------------------------------------------------------
// Fix-it round trips over the shipped corpus: applying every carried fix
// must re-parse, strictly reduce the finding count, and reach a fixed point
// in one step (the second application changes nothing).

TEST(LintFixCorpus, FixRoundTripIsMonotoneAndIdempotent) {
  const char* files[] = {"camera_contention.rtlb", "cycle.rtlb",
                         "dead_latency.rtlb",      "no_host.rtlb",
                         "overflow.rtlb",          "overflow_chain.rtlb",
                         "redundant_edge.rtlb",    "tight_preemptive.rtlb",
                         "tight_window.rtlb",      "window_collapse.rtlb"};
  int changed_files = 0;
  for (const char* name : files) {
    const std::string path =
        std::string(RTLB_SOURCE_DIR) + "/examples/instances/bad/" + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    ProblemInstance inst = parse_instance_string(text, ParseOptions{.validate = false});
    const DedicatedPlatform* platform =
        inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;
    const LintResult before = lint(*inst.app, platform, &inst.lines);
    for (const std::string& c : codes_of(before)) exercised().insert(c);
    const FixApplication fixed = apply_fixes(text, before);
    EXPECT_EQ(fixed.skipped_conflict, 0) << name;
    if (!fixed.changed()) {
      EXPECT_EQ(fixed.text, text) << name;
      continue;
    }
    ++changed_files;
    ProblemInstance repaired;
    try {
      repaired = parse_instance_string(fixed.text, ParseOptions{.validate = false});
    } catch (const ModelError& e) {
      FAIL() << name << ": repaired text no longer parses: " << e.what() << "\n"
             << fixed.text;
    }
    const DedicatedPlatform* rplatform =
        repaired.platform.num_node_types() > 0 ? &repaired.platform : nullptr;
    const LintResult after = lint(*repaired.app, rplatform, &repaired.lines);
    for (const std::string& c : codes_of(after)) exercised().insert(c);
    EXPECT_LT(after.diagnostics.size(), before.diagnostics.size()) << name;
    const FixApplication again = apply_fixes(fixed.text, after);
    EXPECT_EQ(again.applied, 0) << name;
    EXPECT_EQ(again.text, fixed.text) << name;
  }
  // The corpus keeps a healthy fixable share; update when it grows.
  EXPECT_EQ(changed_files, 6);
}

// ---------------------------------------------------------------------------
// The recurrent half of the corpus (RTLB-E5xx / RTLB-W5xx): template-level
// findings, produced BEFORE lowering. The helpers mirror the CLI flow
// exactly -- template errors report the template batch alone (lowering a
// broken template would throw, and the flat passes would mis-judge
// declarations the templates use); clean templates are lowered and the flat
// batch is spliced behind the template one.

LintResult lint_workload_and_track(const ResourceCatalog& catalog, const Workload& workload,
                                   const DedicatedPlatform* platform = nullptr) {
  LintResult result = lint_workload(catalog, workload, platform);
  for (const std::string& c : codes_of(result)) exercised().insert(c);
  return result;
}

LintResult lint_recurrent_text(const std::string& text) {
  ProblemInstance inst = parse_instance_string(text, ParseOptions{.validate = false});
  const DedicatedPlatform* platform =
      inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;
  LintResult templates = lint_workload(*inst.catalog, inst.workload, platform);
  if (templates.errors == 0 && !inst.workload.empty()) {
    lower_instance(inst, LowerOptions{.chain_instances = true, .validate = false});
    templates = merge_lint_results(std::move(templates),
                                   lint(*inst.app, platform, &inst.lines));
  }
  for (const std::string& c : codes_of(templates)) exercised().insert(c);
  return templates;
}

std::string read_bad_corpus_file(const std::string& name) {
  const std::string path = std::string(RTLB_SOURCE_DIR) + "/examples/instances/bad/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(RecurrentLintCorpus, EachBadTemplateCarriesItsExpectedCode) {
  struct Case {
    const char* file;
    const char* code;
    bool is_error;
  };
  const Case cases[] = {
      {"period_zero.rtlb", "RTLB-E501", true},
      {"offset_outside.rtlb", "RTLB-E502", true},
      {"late_release.rtlb", "RTLB-E502", true},
      {"deadline_overrun.rtlb", "RTLB-E503", true},
      {"template_window.rtlb", "RTLB-E504", true},
      {"sporadic_unbounded.rtlb", "RTLB-E505", true},
      {"template_cycle.rtlb", "RTLB-E506", true},
      {"template_empty.rtlb", "RTLB-E507", true},
      {"hyperperiod_overflow.rtlb", "RTLB-E508", true},
      {"lowering_budget.rtlb", "RTLB-E509", true},
      {"overutilized.rtlb", "RTLB-W510", false},
  };
  for (const Case& c : cases) {
    const LintResult result = lint_recurrent_text(read_bad_corpus_file(c.file));
    EXPECT_GE(count_code(result, c.code), 1) << c.file << " should carry " << c.code;
    EXPECT_EQ(result.has_errors(), c.is_error) << c.file;
  }
}

TEST(RecurrentLintCorpus, TemplateDiagnosticsCarryDeclarationLines) {
  for (const char* file : {"period_zero.rtlb", "template_window.rtlb", "template_cycle.rtlb"}) {
    const LintResult result = lint_recurrent_text(read_bad_corpus_file(file));
    ASSERT_TRUE(result.has_errors()) << file;
    for (const Diagnostic& d : result.diagnostics) {
      if (d.severity == Severity::kError) {
        EXPECT_GT(d.line, 0) << file << " " << d.code;
      }
    }
  }
}

TEST(RecurrentLintCorpus, TemplateErrorsSuppressTheFlatBatch) {
  // The ttask lines reference proctype P1; were the flat passes run over the
  // empty lowered app, W201 "declared but unused" would appear (and its fix
  // would delete the declaration the templates need).
  const LintResult result = lint_recurrent_text(read_bad_corpus_file("period_zero.rtlb"));
  EXPECT_TRUE(result.has_errors());
  EXPECT_EQ(count_code(result, "RTLB-W201"), 0);
}

TEST_F(LintTest, WideTemplateOverTheEdgeBudgetIsE509) {
  // 512 independent ttasks over 2048 sporadic activations lower to exactly
  // 2^20 tasks -- within the task budget -- but chaining every activation's
  // 512 sinks to the next one's 512 sources adds 512 * 512 * 2047 edges.
  Transaction tr;
  tr.name = "wide";
  tr.kind = ReleaseKind::kSporadic;
  tr.period = 100;
  tr.horizon = 204800;
  tr.line = 3;
  for (int i = 0; i < 512; ++i) {
    TemplateTask t;
    t.name = "job" + std::to_string(i);
    t.comp = 1;
    t.proc = cpu_;
    tr.tasks.push_back(std::move(t));
  }
  Workload w;
  w.transactions = {std::move(tr)};
  ASSERT_EQ(static_cast<std::int64_t>(lowered_task_count(w.transactions, 1)), kMaxLoweredTasks);
  EXPECT_EQ(static_cast<std::int64_t>(
                lowered_edge_count(w.transactions[0], 1, /*chain_instances=*/true)),
            std::int64_t{512} * 512 * 2047);

  const LintResult r = lint_workload_and_track(catalog_, w);
  ASSERT_EQ(count_code(r, "RTLB-E509"), 1) << lint_json(r).dump(2);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code != "RTLB-E509") continue;
    EXPECT_NE(d.subject.find("wide"), std::string::npos) << d.subject;
    EXPECT_EQ(d.line, 3);
    EXPECT_EQ(d.message,
              "lowering would add 536608768 precedence edges over 2048 activations of this "
              "transaction; the workload exceeds the budget of 33554432 lowered edges");
  }
}

TEST_F(LintTest, RecurrentStructuralVariantsAllMapToE507) {
  const auto one_task_txn = [&](const std::string& name) {
    Transaction tr;
    tr.name = name;
    tr.period = 10;
    TemplateTask t;
    t.name = "job";
    t.comp = 2;
    t.proc = cpu_;
    tr.tasks.push_back(std::move(t));
    return tr;
  };

  {  // duplicate transaction names
    Workload w;
    w.transactions = {one_task_txn("dup"), one_task_txn("dup")};
    const LintResult r = lint_workload_and_track(catalog_, w);
    EXPECT_GE(count_code(r, "RTLB-E507"), 1);
  }
  {  // duplicate task names within one template
    Workload w;
    Transaction tr = one_task_txn("t");
    tr.tasks.push_back(tr.tasks[0]);
    w.transactions = {std::move(tr)};
    const LintResult r = lint_workload_and_track(catalog_, w);
    EXPECT_GE(count_code(r, "RTLB-E507"), 1);
  }
  {  // processor id that names a resource
    Workload w;
    Transaction tr = one_task_txn("t");
    tr.tasks[0].proc = camera_;
    w.transactions = {std::move(tr)};
    const LintResult r = lint_workload_and_track(catalog_, w);
    EXPECT_GE(count_code(r, "RTLB-E507"), 1);
  }
  {  // self-edge
    Workload w;
    Transaction tr = one_task_txn("t");
    tr.edges = {{0, 0, 1}};
    w.transactions = {std::move(tr)};
    const LintResult r = lint_workload_and_track(catalog_, w);
    EXPECT_GE(count_code(r, "RTLB-E507"), 1);
  }
  {  // negative message size
    Workload w;
    Transaction tr = one_task_txn("t");
    TemplateTask second = tr.tasks[0];
    second.name = "next";
    tr.tasks.push_back(std::move(second));
    tr.edges = {{0, 1, -3}};
    w.transactions = {std::move(tr)};
    const LintResult r = lint_workload_and_track(catalog_, w);
    EXPECT_GE(count_code(r, "RTLB-E507"), 1);
  }
  {  // non-positive template computation time reuses the flat E001
    Workload w;
    Transaction tr = one_task_txn("t");
    tr.tasks[0].comp = 0;
    w.transactions = {std::move(tr)};
    const LintResult r = lint_workload_and_track(catalog_, w);
    EXPECT_GE(count_code(r, "RTLB-E001"), 1);
  }
}

TEST_F(LintTest, CleanWorkloadLintsCleanAndValidateAgrees) {
  Workload w;
  Transaction tr;
  tr.name = "ctrl";
  tr.period = 20;
  TemplateTask a;
  a.name = "a";
  a.comp = 3;
  a.proc = cpu_;
  TemplateTask b = a;
  b.name = "b";
  b.relative_deadline = 15;
  tr.tasks = {a, b};
  tr.edges = {{0, 1, 2}};
  w.transactions = {tr};
  const LintResult r = lint_workload_and_track(catalog_, w);
  EXPECT_FALSE(r.has_errors()) << format_lint_text(r);
  EXPECT_NO_THROW(validate_workload(catalog_, w));

  // validate_workload surfaces the first lint error with the same wording.
  w.transactions[0].period = 0;
  const LintResult bad = lint_workload_and_track(catalog_, w);
  ASSERT_TRUE(bad.has_errors());
  try {
    validate_workload(catalog_, w);
    FAIL() << "validate_workload() did not throw";
  } catch (const ModelError& e) {
    const Diagnostic& first = bad.diagnostics[0];
    EXPECT_EQ(std::string(e.what()), first.subject + ": " + first.message);
  }
}

TEST(RecurrentLintFixCorpus, FixRoundTripReachesAnErrorFreeFixedPoint) {
  // The fixable half of the recurrent corpus. Unlike the flat round-trip
  // above, the diagnostic COUNT may grow after repair -- a repaired template
  // lowers, and the lowered instances flow through the flat passes, which
  // may now surface notes the broken template suppressed -- so the contract
  // here is: no errors remain, and the fix is a one-step fixed point.
  const char* files[] = {"period_zero.rtlb",       "offset_outside.rtlb",
                         "late_release.rtlb",      "deadline_overrun.rtlb",
                         "template_window.rtlb",   "sporadic_unbounded.rtlb"};
  for (const char* name : files) {
    const std::string text = read_bad_corpus_file(name);
    const LintResult before = lint_recurrent_text(text);
    ASSERT_TRUE(before.has_errors()) << name;
    const FixApplication fixed = apply_fixes(text, before);
    EXPECT_EQ(fixed.skipped_conflict, 0) << name;
    ASSERT_TRUE(fixed.changed()) << name;

    const LintResult after = lint_recurrent_text(fixed.text);
    EXPECT_EQ(after.errors, 0) << name << ":\n" << format_lint_text(after);
    const FixApplication again = apply_fixes(fixed.text, after);
    EXPECT_EQ(again.applied, 0) << name;
    EXPECT_EQ(again.text, fixed.text) << name;
  }
}

// ---------------------------------------------------------------------------
// The abstract-interpretation soundness contract, over the generator.

TEST(AbsIntProperty, NeverFlagsAnalyzableInstancesAndAlwaysFlagsOverflowChains) {
  // Soundness: instances analyze() completes on without overflow are proved
  // safe -- the E310 layer may not cry wolf.
  for (const GraphShape shape :
       {GraphShape::Layered, GraphShape::ForkJoin, GraphShape::Random}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      WorkloadParams params;
      params.seed = seed;
      params.shape = shape;
      params.num_tasks = 16;
      ProblemInstance inst = generate_workload(params);
      AnalysisOptions options;
      AnalysisResult base;
      ASSERT_NO_THROW(base = analyze(*inst.app, options, &inst.platform));
      EXPECT_EQ(abstract_interpret(*inst.app, &inst.platform).verdict,
                AbsVerdict::kProvedSafe)
          << "seed " << seed << " shape " << static_cast<int>(shape);
      EXPECT_EQ(count_code(lint_and_track(*inst.app, &inst.platform), "RTLB-E310"), 0);
    }
  }

  // Completeness on the provable side: chains whose MINIMUM possible sum
  // exceeds int64 (10 hops of comp >= kTimeMax/2) are flagged before
  // analyze() ever runs, at any seed.
  ResourceCatalog cat;
  const ResourceId cpu = cat.add_processor_type("CPU", 1);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Time> comp(kTimeMax / 2, kTimeMax);
    Application chain(cat);
    TaskId prev = kInvalidTask;
    for (int k = 0; k < 11; ++k) {
      const TaskId t =
          chain.add_task(make_task("t" + std::to_string(k), comp(rng), 0, kTimeMax, cpu));
      if (k > 0) chain.add_edge(prev, t, 1);
      prev = t;
    }
    const LintResult result = lint_and_track(chain);
    EXPECT_GE(count_code(result, "RTLB-E310"), 1) << "seed " << seed;
    EXPECT_EQ(abstract_interpret(chain).verdict, AbsVerdict::kMustOverflow);
    AnalysisOptions gated;
    gated.lint_level = LintLevel::kErrors;
    EXPECT_THROW(analyze(chain, gated), LintGateError);
  }
}

// Must run after the scenario tests above (gtest runs tests in declaration
// order within a file): every registered code has been produced at least
// once by a real model or corpus file.
TEST(LintRegistryCoverage, EveryRegisteredCodeIsExercised) {
  for (const DiagInfo& info : all_diag_info()) {
    EXPECT_TRUE(exercised().count(info.code))
        << info.code << " is registered but no test produced it";
  }
}

}  // namespace
}  // namespace rtlb
