// The unified pipeline (src/core/pipeline.hpp) and its instrumentation.
//
// Three contracts are pinned here:
//  * run_pipeline() with nothing to reuse IS the cold analyze() --
//    bit-for-bit across bounds, witnesses, costs, and certificates, for
//    every config x seed of the randomized corpus (the same corpus style
//    test_session.cpp drives), and regardless of whether a Trace is
//    attached (instrumentation must never perturb computed values);
//  * emitted traces obey the schema: one "pipeline" root, every stage
//    spanned exactly once in execution order, children nested inside their
//    parent's envelope and summing to (at most) the pipeline wall time;
//  * the lint-gate refusal policies, the bound_for index, and the per-stage
//    SessionStats counters behave as documented.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/model/io.hpp"
#include "src/obs/trace.hpp"
#include "src/verify/certificate.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {
namespace {

struct Config {
  SystemModel model;
  bool platform;
  bool joint;
  bool pruning;
};

const Config kConfigs[] = {
    {SystemModel::Shared, false, false, false},
    {SystemModel::Shared, true, true, true},
    {SystemModel::Dedicated, true, false, false},
};

ProblemInstance corpus_instance(std::uint64_t seed) {
  WorkloadParams params;
  params.seed = seed * 17;
  params.num_tasks = 14;
  params.laxity = 1.6;
  params.resource_prob = 0.5;
  params.preemptive_prob = 0.3;
  return generate_workload(params);
}

void expect_bit_identical(const Application& app, const AnalysisResult& got,
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
  ASSERT_EQ(got.certificate.has_value(), want.certificate.has_value()) << context;
  if (got.certificate) {
    EXPECT_EQ(certificate_json(*got.certificate).dump(2),
              certificate_json(*want.certificate).dump(2))
        << context;
  }
}

TEST(PipelineProperty, ColdPipelineMatchesAnalyzeBitForBit) {
  for (const Config& cfg : kConfigs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ProblemInstance inst = corpus_instance(seed);
      AnalysisOptions options;
      options.model = cfg.model;
      options.joint_bounds = cfg.joint;
      options.lower_bound.enable_pruning = cfg.pruning;
      options.emit_certificates = true;
      options.check_certificates = true;
      const DedicatedPlatform* platform = cfg.platform ? &inst.platform : nullptr;

      const std::string context = "model " + std::to_string(static_cast<int>(cfg.model)) +
                                  " seed " + std::to_string(seed);
      const AnalysisResult via_analyze = analyze(*inst.app, options, platform);
      const AnalysisResult via_pipeline = run_pipeline(*inst.app, options, platform);
      expect_bit_identical(*inst.app, via_pipeline, via_analyze, context);
      ASSERT_TRUE(via_pipeline.certificate_check) << context;
      EXPECT_TRUE(via_pipeline.certificate_check->valid) << context;
    }
  }
}

TEST(PipelineProperty, TracedRunIsBitIdenticalToUntraced) {
  for (const Config& cfg : kConfigs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ProblemInstance inst = corpus_instance(seed);
      AnalysisOptions options;
      options.model = cfg.model;
      options.joint_bounds = cfg.joint;
      options.lower_bound.enable_pruning = cfg.pruning;
      options.emit_certificates = true;
      const DedicatedPlatform* platform = cfg.platform ? &inst.platform : nullptr;

      const AnalysisResult plain = run_pipeline(*inst.app, options, platform);
      Trace trace;
      AnalysisOptions traced = options;
      traced.trace = &trace;
      const AnalysisResult instrumented = run_pipeline(*inst.app, traced, platform);
      expect_bit_identical(*inst.app, instrumented, plain,
                           "seed " + std::to_string(seed));
      EXPECT_EQ(trace.open_depth(), 0u);
    }
  }
}

TEST(TraceSchema, SpansNestAndSumToPipelineWallTime) {
  ProblemInstance inst = paper_example();
  Trace trace;
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  options.emit_certificates = true;
  options.check_certificates = true;
  options.trace = &trace;
  run_pipeline(*inst.app, options, &inst.platform);

  const std::vector<TraceSpan>& spans = trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(trace.open_depth(), 0u);

  // Exactly one root, named "pipeline".
  ASSERT_EQ(spans[0].name, "pipeline");
  ASSERT_EQ(spans[0].parent, -1);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].parent, 0) << spans[i].name;
  }

  // Every stage appears exactly once, as a direct child, in Stage order.
  std::vector<std::string> children;
  std::uint64_t child_sum = 0;
  std::uint64_t prev_end = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].parent != 0) continue;
    children.push_back(spans[i].name);
    child_sum += spans[i].dur_ns;
    // Children nest inside the root's envelope and never overlap each
    // other (the pipeline runs stages sequentially on one thread).
    EXPECT_GE(spans[i].start_ns, spans[0].start_ns) << spans[i].name;
    EXPECT_LE(spans[i].start_ns + spans[i].dur_ns, spans[0].start_ns + spans[0].dur_ns)
        << spans[i].name;
    EXPECT_GE(spans[i].start_ns, prev_end) << spans[i].name;
    prev_end = spans[i].start_ns + spans[i].dur_ns;
  }
  ASSERT_EQ(children.size(), static_cast<std::size_t>(kNumStages) + 1);
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_EQ(children[static_cast<std::size_t>(s)], stage_name(static_cast<Stage>(s)));
  }
  EXPECT_EQ(children.back(), "certificates");
  // Sequential non-overlapping children cannot exceed the root's wall time.
  EXPECT_LE(child_sum, spans[0].dur_ns);

  // Exported forms preserve the envelope in integer microseconds.
  const Json chrome = Json::parse(trace.chrome_json().dump());
  const Json* events = chrome.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  const Json& root_ev = events->at(0);
  const std::int64_t root_ts = root_ev.find("ts")->as_int();
  const std::int64_t root_end = root_ts + root_ev.find("dur")->as_int();
  std::set<std::string> names;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& ev = events->at(i);
    EXPECT_EQ(ev.find("ph")->as_string(), "X");
    const std::int64_t ts = ev.find("ts")->as_int();
    EXPECT_GE(ts, root_ts);
    EXPECT_LE(ts + ev.find("dur")->as_int(), root_end);
    names.insert(ev.find("name")->as_string());
  }
  for (const char* stage : stage_names()) {
    EXPECT_TRUE(names.contains(stage)) << stage;
  }
}

TEST(TraceSchema, LintGateNestsTheLintContextAndPerPassSpans) {
  // At kReport the linter records its context and every pass under the
  // "lint_gate" stage span, in run order; the trace changes no finding.
  ProblemInstance inst = corpus_instance(2);
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  options.lint_level = LintLevel::kReport;
  const AnalysisResult untraced = run_pipeline(*inst.app, options, &inst.platform);
  Trace trace;
  options.trace = &trace;
  const AnalysisResult traced = run_pipeline(*inst.app, options, &inst.platform);
  ASSERT_TRUE(traced.lint.has_value() && untraced.lint.has_value());
  EXPECT_EQ(lint_json(*traced.lint).dump(), lint_json(*untraced.lint).dump());

  const std::vector<TraceSpan>& spans = trace.spans();
  const auto gate = std::ranges::find(spans, std::string(stage_name(Stage::kLintGate)),
                                      &TraceSpan::name);
  ASSERT_NE(gate, spans.end());
  const int gate_index = static_cast<int>(gate - spans.begin());
  std::vector<std::string> children;
  for (const TraceSpan& span : spans) {
    if (span.parent == gate_index) children.push_back(span.name);
  }
  std::vector<std::string> expected = {"lint.pass.structural", "lint.context.absint",
                                       "lint.context.windows"};
  for (const LintPass& pass : default_linter().passes()) {
    if (pass.needs_valid_model) expected.push_back("lint.pass." + pass.name);
  }
  EXPECT_EQ(children, expected);
}

TEST(TraceSchema, StageNamesAreExhaustiveAndStable) {
  ASSERT_EQ(stage_names().size(), static_cast<std::size_t>(kNumStages));
  EXPECT_STREQ(stage_name(Stage::kLintGate), "lint_gate");
  EXPECT_STREQ(stage_name(Stage::kWindows), "windows");
  EXPECT_STREQ(stage_name(Stage::kPartitions), "partitions");
  EXPECT_STREQ(stage_name(Stage::kBounds), "bounds");
  EXPECT_STREQ(stage_name(Stage::kCosts), "costs");
}

TEST(TraceSchema, CountersAccumulateAndClearPreservesEpoch) {
  Trace trace;
  {
    ScopedSpan outer(&trace, "outer");
    outer.count("work", 2);
    outer.count("work", 3);
    {
      ScopedSpan inner(&trace, "inner");
      inner.count("work", 7);
    }
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  const TraceSpan& outer = trace.spans()[0];
  const TraceSpan& inner = trace.spans()[1];
  EXPECT_EQ(inner.parent, 0);
  ASSERT_EQ(outer.counters.size(), 1u);
  EXPECT_EQ(outer.counters[0].value, 5);  // same-name counters merge
  ASSERT_EQ(inner.counters.size(), 1u);
  EXPECT_EQ(inner.counters[0].value, 7);

  const std::uint64_t first_start = outer.start_ns;
  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
  {
    ScopedSpan later(&trace, "later");
  }
  // Same clock: a span recorded after clear() starts no earlier than one
  // recorded before it.
  EXPECT_GE(trace.spans()[0].start_ns, first_start);
}

TEST(LintGate, RefusalPoliciesMatchTheDocumentedSets) {
  auto error = [](const char* code) {
    LintResult r;
    Diagnostic d;
    d.code = code;
    d.severity = Severity::kError;
    r.diagnostics.push_back(std::move(d));
    r.errors = 1;
    return r;
  };
  LintResult warning_only;
  {
    Diagnostic d;
    d.code = "RTLB-W201";
    d.severity = Severity::kWarning;
    warning_only.diagnostics.push_back(std::move(d));
    warning_only.warnings = 1;
  }
  const LintResult structural = error("RTLB-E001");
  const LintResult semantic = error("RTLB-E101");
  const LintResult overflow = error("RTLB-E310");

  // kOff never refuses here: validate() owns structural safety on that path.
  EXPECT_FALSE(lint_gate_refuses(structural, LintLevel::kOff));
  // kReport refuses exactly the validate() set: structural RTLB-E0xx.
  EXPECT_TRUE(lint_gate_refuses(structural, LintLevel::kReport));
  EXPECT_FALSE(lint_gate_refuses(semantic, LintLevel::kReport));
  EXPECT_FALSE(lint_gate_refuses(warning_only, LintLevel::kReport));
  // ...plus a proved window overflow, at every level but kOff.
  EXPECT_FALSE(lint_gate_refuses(overflow, LintLevel::kOff));
  EXPECT_TRUE(lint_gate_refuses(overflow, LintLevel::kReport));
  EXPECT_TRUE(lint_gate_refuses(overflow, LintLevel::kErrors));
  // kErrors refuses any error-severity finding; warnings pass.
  EXPECT_TRUE(lint_gate_refuses(semantic, LintLevel::kErrors));
  EXPECT_FALSE(lint_gate_refuses(warning_only, LintLevel::kErrors));
  // kWarnings refuses warnings too.
  EXPECT_TRUE(lint_gate_refuses(warning_only, LintLevel::kWarnings));
  EXPECT_FALSE(lint_gate_refuses(LintResult{}, LintLevel::kWarnings));
}

TEST(LintGate, ProvedOverflowNeverReachesTheWindowsStage) {
  // Each hop adds comp = INT64_MAX/4 along a 7-task chain: absint proves the
  // window sums overflow (RTLB-E310), so kReport must refuse before kWindows.
  // kOff runs no lint; there the windows stage refuses the out-of-range
  // windows itself, with a ModelError naming the same code.
  std::string text = "proctype CPU cost 5\n";
  for (int k = 0; k < 7; ++k) {
    text += "task c" + std::to_string(k) +
            " comp 2305843009213693951 rel 0 deadline 2305843009213693951 proc CPU\n";
    if (k > 0) {
      text += "edge c" + std::to_string(k - 1) + " c" + std::to_string(k) + " msg 1\n";
    }
  }
  const ProblemInstance inst = parse_instance_string(text, ParseOptions{.validate = false});
  for (const LintLevel level : {LintLevel::kReport, LintLevel::kOff}) {
    AnalysisOptions options;
    options.lint_level = level;
    Trace trace;
    options.trace = &trace;
    if (level == LintLevel::kReport) {
      EXPECT_THROW(run_pipeline(*inst.app, options), LintGateError);
      for (const TraceSpan& span : trace.spans()) {
        EXPECT_NE(span.name, stage_name(Stage::kWindows));
      }
    } else {
      try {
        run_pipeline(*inst.app, options);
        ADD_FAILURE() << "kOff returned windows that overflow";
      } catch (const ModelError& e) {
        EXPECT_NE(std::string(e.what()).find("RTLB-E310"), std::string::npos) << e.what();
      }
    }
  }
}

/// Sum of one stage's "from_lint" counters recorded so far.
std::int64_t count_from_lint(const Trace& trace, Stage stage = Stage::kWindows) {
  std::int64_t from_lint = 0;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name != stage_name(stage)) continue;
    for (const TraceCounter& c : span.counters) {
      if (c.name == "from_lint") from_lint += c.value;
    }
  }
  return from_lint;
}

TEST(LintGate, FreshLintHandsItsWindowsToTheWindowsStage) {
  // The gate's windows are reused only when they come from the oracle
  // kWindows would pick; every combination must match the kOff run, which
  // computes its own windows.
  for (const Config& cfg : kConfigs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ProblemInstance inst = corpus_instance(seed);
      const DedicatedPlatform* platform = cfg.platform ? &inst.platform : nullptr;
      AnalysisOptions options;
      options.model = cfg.model;
      options.emit_certificates = true;
      const AnalysisResult cold = run_pipeline(*inst.app, options, platform);
      Trace trace;
      options.lint_level = LintLevel::kReport;
      options.trace = &trace;
      const AnalysisResult gated = run_pipeline(*inst.app, options, platform);
      EXPECT_EQ(gated.windows, cold.windows) << "seed " << seed;
      EXPECT_EQ(certificate_json(*gated.certificate).dump(),
                certificate_json(*cold.certificate).dump())
          << "seed " << seed;
      const bool same_oracle = (cfg.model == SystemModel::Dedicated) == cfg.platform;
      EXPECT_EQ(count_from_lint(trace), same_oracle ? 1 : 0) << "seed " << seed;
      // The lint's partitions of those windows come with them.
      EXPECT_EQ(count_from_lint(trace, Stage::kPartitions), same_oracle ? 1 : 0)
          << "seed " << seed;
      EXPECT_EQ(gated.partitions, cold.partitions) << "seed " << seed;

      // Session leg: a query after a timing delta lints fresh too -- its
      // lint dumps bit-identically to a cold lint of the mutated model, and
      // it hands its windows over under the same oracle rule.
      Trace session_trace;
      options.trace = &session_trace;
      AnalysisSession session(*inst.app, options, platform);
      session.set_verify(true);
      session.analyze();
      const std::int64_t before = count_from_lint(session_trace);
      session.set_deadline(0, session.app().task(0).deadline + 1);
      const AnalysisResult& delta = session.analyze();
      ASSERT_TRUE(delta.lint.has_value());
      EXPECT_EQ(lint_json(*delta.lint).dump(),
                lint_json(lint(session.app(), platform)).dump())
          << "seed " << seed;
      EXPECT_EQ(count_from_lint(session_trace) - before, same_oracle ? 1 : 0)
          << "seed " << seed;
    }
  }
}

TEST(BoundIndex, BinarySearchMatchesLinearScanIncludingMisses) {
  ProblemInstance inst = corpus_instance(2);
  const AnalysisResult result = analyze(*inst.app);
  ASSERT_EQ(result.bound_index.size(), result.bounds.size());
  std::set<ResourceId> present;
  for (const ResourceBound& b : result.bounds) {
    present.insert(b.resource);
    const auto found = result.bound_for(b.resource);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, b.bound);
  }
  // A resource id outside the bound rows resolves to nullopt, not garbage.
  ResourceId absent = 0;
  while (present.contains(absent)) ++absent;
  EXPECT_FALSE(result.bound_for(absent).has_value());

  // Hand-assembled results (never produced by the pipeline) carry no index
  // and must fall back to the scan.
  AnalysisResult manual;
  ResourceBound row;
  row.resource = 3;
  row.bound = 42;
  manual.bounds.push_back(row);
  ASSERT_TRUE(manual.bound_index.empty());
  const auto fallback = manual.bound_for(3);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(*fallback, 42);
  EXPECT_FALSE(manual.bound_for(4).has_value());
}

TEST(SessionStats, PerStageCountersSurfaceInJsonAndStayConsistent) {
  ProblemInstance inst = corpus_instance(1);
  AnalysisOptions options;
  options.joint_bounds = true;
  AnalysisSession session(*inst.app, options, &inst.platform);
  session.set_verify(true);

  session.analyze();                     // cold miss everywhere
  session.analyze();                     // pure query hit
  const Task& t0 = session.app().task(0);
  session.set_deadline(0, t0.deadline + 1);  // windows delta
  session.analyze();

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.query_hits, 1u);
  // Each non-hit query ran the gate once and decided each stage once.
  EXPECT_EQ(stats.gate_runs, stats.queries - stats.query_hits);
  EXPECT_EQ(stats.window_hits + stats.window_misses, stats.queries - stats.query_hits);
  EXPECT_EQ(stats.partition_hits + stats.partition_misses,
            stats.queries - stats.query_hits);
  EXPECT_EQ(stats.bound_hits + stats.bound_misses, stats.queries - stats.query_hits);
  EXPECT_EQ(stats.joint_hits + stats.joint_misses, stats.queries - stats.query_hits);
  EXPECT_EQ(stats.cost_hits + stats.cost_misses, stats.queries - stats.query_hits);
  EXPECT_EQ(stats.verified, stats.queries - stats.query_hits);

  const Json json = Json::parse(session_stats_json(stats).dump());
  for (const char* key :
       {"queries", "query_hits", "gate_runs", "lint_pass_hits", "lint_pass_misses",
        "window_hits", "window_misses",
        "partition_hits", "partition_misses", "bound_hits", "bound_misses",
        "block_hits", "block_misses", "joint_hits", "joint_misses", "cost_hits",
        "cost_misses", "verified"}) {
    EXPECT_NE(json.find(key), nullptr) << key;
  }
  EXPECT_EQ(json.find("gate_runs")->as_int(), static_cast<std::int64_t>(stats.gate_runs));
}

TEST(SessionStats, WarmReplayHitsEveryStageAfterNoOpRecompute) {
  // A deadline delta that recomputes value-identical windows must replay
  // partitions, bounds, joint rows, and the ILP -- visible per stage.
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  options.joint_bounds = true;
  AnalysisSession session(*inst.app, options, &inst.platform);
  session.set_verify(true);
  session.analyze();

  // Wiggle a deadline away and back: the second query recomputes windows
  // (the flag is dirty) but lands on the original values.
  const Time original = session.app().task(0).deadline;
  session.set_deadline(0, original + 5);
  session.analyze();
  session.set_deadline(0, original);
  session.analyze();

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.window_misses, 3u);  // every query recomputed windows
  // The return to the original deadline replayed everything downstream.
  EXPECT_GE(stats.partition_hits, 1u);
  EXPECT_GE(stats.bound_hits, 1u);
  EXPECT_GE(stats.joint_hits, 1u);
  EXPECT_GE(stats.cost_hits, 1u);
}

}  // namespace
}  // namespace rtlb
