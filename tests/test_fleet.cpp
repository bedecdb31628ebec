// Tests for the differential-testing fleet runner (src/fleet/).
//
// The load-bearing properties here are DETERMINISM properties: the same
// scenario spec must yield byte-identical aggregate reports regardless of
// thread count, sharding, or kill-and-resume -- plus
// the oracle property that a deliberately corrupted engine result is
// flagged as exactly one divergence at exactly the right coordinates.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>

#include "src/common/checkpoint.hpp"
#include "src/common/random.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/fleet/runner.hpp"
#include "src/model/io.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {
namespace {

ScenarioSpec tiny_spec() {
  // 2 shapes x 1 task count x 2 laxities x 2 models = 8 cells x 10 = 80.
  return ScenarioSpec::from_text(R"({
    "name": "tiny",
    "seed": 7,
    "instances_per_cell": 10,
    "axes": {
      "shape": ["layered", "fork_join"],
      "num_tasks": [8],
      "laxity": [1.5, 3],
      "model": ["shared", "dedicated"]
    },
    "defaults": {"num_resources": 2, "resource_prob": 0.5}
  })");
}

std::string report_bytes(const ScenarioSpec& spec, const FleetRunResult& run,
                         int shards = 1, int shard = 0) {
  return fleet_report_json(spec, run.aggregates, shards, shard, run.complete).dump();
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------- scenario

TEST(FleetScenario, SpecRoundTripsThroughJson) {
  const ScenarioSpec spec = tiny_spec();
  const ScenarioSpec again = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(spec.to_json().dump(), again.to_json().dump());
  EXPECT_EQ(spec.fingerprint(), again.fingerprint());
}

TEST(FleetScenario, CellEnumerationIsShapeMajorAndStable) {
  const ScenarioSpec spec = tiny_spec();
  const std::vector<ScenarioCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].label(), "layered/n8/lax1.5/shared");
  EXPECT_EQ(cells[1].label(), "layered/n8/lax1.5/dedicated");
  EXPECT_EQ(cells[2].label(), "layered/n8/lax3/shared");
  EXPECT_EQ(cells[7].label(), "fork_join/n8/lax3/dedicated");
  EXPECT_EQ(spec.total_instances(), 80u);
}

TEST(FleetScenario, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(ScenarioSpec::from_text(R"({"bogus": 1})"), ModelError);
  EXPECT_THROW(ScenarioSpec::from_text(R"({"axes": {"bogus": [1]}})"), ModelError);
  EXPECT_THROW(ScenarioSpec::from_text(R"({"defaults": {"bogus": 1}})"), ModelError);
  EXPECT_THROW(ScenarioSpec::from_text(R"({"instances_per_cell": 0})"), ModelError);
  EXPECT_THROW(ScenarioSpec::from_text(R"({"axes": {"laxity": [0.5]}})"), ModelError);
  EXPECT_THROW(ScenarioSpec::from_text(R"({"axes": {"shape": ["mystery"]}})"), ModelError);
}

TEST(FleetScenario, FingerprintSeparatesSpecs) {
  const ScenarioSpec a = tiny_spec();
  ScenarioSpec b = tiny_spec();
  b.seed = 8;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ------------------------------------------------------------ workload axis

TEST(FleetScenario, WorkloadFormNamesRoundTrip) {
  for (const WorkloadForm form :
       {WorkloadForm::Flat, WorkloadForm::Periodic, WorkloadForm::Sporadic}) {
    EXPECT_EQ(workload_form_from_name(workload_form_name(form)), form);
  }
  EXPECT_EQ(workload_form_name(WorkloadForm::Flat), "flat");
  EXPECT_EQ(workload_form_name(WorkloadForm::Periodic), "periodic");
  EXPECT_EQ(workload_form_name(WorkloadForm::Sporadic), "sporadic");
  EXPECT_THROW(workload_form_from_name("mystery"), ModelError);
  EXPECT_THROW(ScenarioSpec::from_text(R"({"axes": {"workload": ["mystery"]}})"),
               ModelError);
}

ScenarioSpec recurrent_spec() {
  return ScenarioSpec::from_text(R"({
    "name": "recurrent",
    "seed": 11,
    "instances_per_cell": 5,
    "axes": {
      "shape": ["layered"],
      "num_tasks": [8],
      "laxity": [1.5],
      "workload": ["flat", "periodic", "sporadic"],
      "model": ["shared", "dedicated"]
    },
    "defaults": {"num_resources": 2, "resource_prob": 0.5}
  })");
}

TEST(FleetScenario, WorkloadAxisNestsBetweenLaxityAndModel) {
  const ScenarioSpec spec = recurrent_spec();
  const std::vector<ScenarioCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 6u);
  // Flat cells keep their historical label; recurrent cells render the
  // workload segment between laxity and model.
  EXPECT_EQ(cells[0].label(), "layered/n8/lax1.5/shared");
  EXPECT_EQ(cells[1].label(), "layered/n8/lax1.5/dedicated");
  EXPECT_EQ(cells[2].label(), "layered/n8/lax1.5/periodic/shared");
  EXPECT_EQ(cells[3].label(), "layered/n8/lax1.5/periodic/dedicated");
  EXPECT_EQ(cells[4].label(), "layered/n8/lax1.5/sporadic/shared");
  EXPECT_EQ(cells[5].label(), "layered/n8/lax1.5/sporadic/dedicated");
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);

  // The axis is part of the canonical dump (and hence the fingerprint), and
  // the spec round-trips through it.
  const ScenarioSpec again = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(spec.to_json().dump(), again.to_json().dump());
  ScenarioSpec flat_only = recurrent_spec();
  flat_only.workloads = {WorkloadForm::Flat};
  EXPECT_NE(spec.fingerprint(), flat_only.fingerprint());
}

TEST(FleetRunner, RecurrentCellsRunAllOraclesClean) {
  const ScenarioSpec spec = recurrent_spec();
  const FleetRunResult run = run_fleet(spec, FleetOptions{});
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.aggregates.instances, 30u);
  EXPECT_TRUE(run.aggregates.clean()) << run.aggregates.to_json().dump(2);
}

// -------------------------------------------------------------------- rng

// The stream-split scheme is a FROZEN CONTRACT: instance seeds are a pure
// function of (spec seed, cell index, instance index), so reproducer
// coordinates recorded by one build must regenerate the same instance in
// every later build. Changing split_seed invalidates every committed
// divergence record -- these exact values pin it.
TEST(FleetRng, SeedSplitPinned) {
  EXPECT_EQ(split_seed(42, 0, 0), 17528487489388797348ULL);
  EXPECT_EQ(split_seed(42, 0, 1), 5105103197573283624ULL);
  EXPECT_EQ(split_seed(42, 1, 0), 18403162606258993455ULL);
  EXPECT_EQ(split_seed(1, 2), 15782585130545134964ULL);
  EXPECT_EQ(split_seed(0, 0), 12534471714451444654ULL);
  EXPECT_EQ(split_seed(7, 3, 9), 12182798711933964556ULL);
}

TEST(FleetRng, InstanceSeedsAreCollisionFreeAcrossTheGrid) {
  // 100 cells x 100 instances: any collision would make two "independent"
  // instances identical, silently halving fleet coverage.
  std::set<std::uint64_t> seen;
  for (std::size_t c = 0; c < 100; ++c) {
    for (std::size_t k = 0; k < 100; ++k) {
      EXPECT_TRUE(seen.insert(split_seed(42, c, k)).second)
          << "seed collision at cell " << c << " instance " << k;
    }
  }
}

TEST(FleetRng, InstanceSeedIndependentOfNeighbourStreams) {
  // Adjacent (cell, k) pairs must not yield correlated generator output:
  // the first draws from Rngs seeded with neighbouring coordinates differ.
  Rng a(split_seed(42, 3, 4));
  Rng b(split_seed(42, 3, 5));
  Rng c(split_seed(42, 4, 4));
  const std::uint64_t x = a.next_u64(), y = b.next_u64(), z = c.next_u64();
  EXPECT_NE(x, y);
  EXPECT_NE(x, z);
  EXPECT_NE(y, z);
}

TEST(FleetRng, GeneratedInstancesDifferAcrossInstanceIndex) {
  const ScenarioSpec spec = tiny_spec();
  const ScenarioCell cell = spec.cells()[0];
  const ProblemInstance i0 = generate_workload(spec.instance_params(cell, 0));
  const ProblemInstance i1 = generate_workload(spec.instance_params(cell, 1));
  EXPECT_NE(serialize_instance(*i0.app, i0.platform),
            serialize_instance(*i1.app, i1.platform));
}

// -------------------------------------------------------------- aggregates

TEST(FleetAggregatesTest, HistogramBucketsAndMerge) {
  Histogram h = make_tightness_histogram();
  h.add(1000);   // exactly 1.0x -> first bucket
  h.add(1000);
  h.add(1050);   // (1.001, 1.1]
  h.add(20000);  // overflow
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts.back(), 1u);
  EXPECT_EQ(h.total(), 4u);

  JsonWriter w;
  h.write_json(w);
  Histogram g = Histogram::from_json(Json::parse(w.take()));
  g.merge(h);
  EXPECT_EQ(g.total(), 8u);
  EXPECT_EQ(g.counts[0], 4u);
}

TEST(FleetAggregatesTest, RoundTripThroughJsonIsExact) {
  const ScenarioSpec spec = tiny_spec();
  const FleetRunResult run = run_fleet(spec, FleetOptions{});
  const std::string bytes = run.aggregates.to_json().dump();
  const FleetAggregates again = FleetAggregates::from_json(Json::parse(bytes));
  EXPECT_EQ(bytes, again.to_json().dump());
}

// ------------------------------------------------------------ determinism

TEST(FleetRunner, SmokeAllOraclesClean) {
  const ScenarioSpec spec = tiny_spec();
  const FleetRunResult run = run_fleet(spec, FleetOptions{});
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.aggregates.instances, 80u);
  EXPECT_TRUE(run.aggregates.clean())
      << run.aggregates.to_json().dump(2);
  // Every instance produced at least the baseline + parallel + session runs.
  EXPECT_GE(run.aggregates.analyses, 80u * 3);
}

TEST(FleetRunner, ThreadCountDoesNotChangeTheBytes) {
  const ScenarioSpec spec = tiny_spec();
  FleetOptions serial;
  FleetOptions threaded;
  threaded.threads = 4;
  EXPECT_EQ(report_bytes(spec, run_fleet(spec, serial)),
            report_bytes(spec, run_fleet(spec, threaded)));
}

TEST(FleetRunner, PoolIsCappedAtTheShardsInstances) {
  // Shard 0 of 40 owns two of the 80 instances, so 24 requested workers
  // start two threads. The parallel oracle is off: its bound scans start
  // pools of their own.
  const ScenarioSpec spec = tiny_spec();
  FleetOptions opts;
  opts.threads = 24;
  opts.shards = 40;
  opts.oracles.parallel = false;
  const std::uint64_t before = ThreadPool::threads_started();
  const FleetRunResult run = run_fleet(spec, opts);
  EXPECT_EQ(ThreadPool::threads_started() - before, 2u);
  EXPECT_EQ(run.aggregates.instances, 2u);
}

TEST(FleetRunner, ShardedRunsMergeToSingleProcessBytes) {
  const ScenarioSpec spec = tiny_spec();
  const FleetRunResult whole = run_fleet(spec, FleetOptions{});
  std::vector<Json> shard_reports;
  for (int s = 0; s < 3; ++s) {
    FleetOptions opts;
    opts.shards = 3;
    opts.shard = s;
    const FleetRunResult shard = run_fleet(spec, opts);
    EXPECT_TRUE(shard.complete);
    shard_reports.push_back(
        Json::parse(fleet_report_json(spec, shard.aggregates, 3, s, true).dump()));
  }
  EXPECT_EQ(merge_fleet_reports(shard_reports).json().dump(), report_bytes(spec, whole));
}

TEST(FleetRunner, MergeRefusesMismatchedShards) {
  const ScenarioSpec spec = tiny_spec();
  FleetOptions opts;
  opts.shards = 2;
  opts.shard = 0;
  const FleetRunResult half = run_fleet(spec, opts);
  const Json report = Json::parse(fleet_report_json(spec, half.aggregates, 2, 0, true).dump());
  EXPECT_THROW(merge_fleet_reports({report}), ModelError);          // wrong count
  EXPECT_THROW(merge_fleet_reports({report, report}), ModelError);  // duplicate shard
}

// --------------------------------------------------------------- resume

TEST(FleetRunner, CheckpointResumeIsByteIdentical) {
  const ScenarioSpec spec = tiny_spec();
  const std::string ckpt = temp_path("rtlb_fleet_resume.ckpt");
  std::remove(ckpt.c_str());

  const std::string uninterrupted = report_bytes(spec, run_fleet(spec, FleetOptions{}));

  FleetOptions first;
  first.checkpoint_path = ckpt;
  first.checkpoint_every = 7;  // deliberately not a divisor of 80
  first.stop_after = 33;       // "kill -9" after the 33rd instance's chunk
  const FleetRunResult partial = run_fleet(spec, first);
  EXPECT_FALSE(partial.complete);
  EXPECT_LE(partial.processed_this_run, 35u);

  FleetOptions second;
  second.checkpoint_path = ckpt;
  second.checkpoint_every = 7;
  const FleetRunResult resumed = run_fleet(spec, second);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_LT(resumed.processed_this_run, 80u);
  EXPECT_EQ(report_bytes(spec, resumed), uninterrupted);
  std::remove(ckpt.c_str());
}

TEST(FleetRunner, CheckpointSurvivesMidChunkKill) {
  // The checkpoint on disk always describes a CHUNK BOUNDARY; a process
  // killed mid-chunk re-runs only that chunk. Simulate by resuming from a
  // checkpoint that is older than the work actually done.
  const ScenarioSpec spec = tiny_spec();
  const std::string ckpt = temp_path("rtlb_fleet_midchunk.ckpt");
  std::remove(ckpt.c_str());

  FleetOptions first;
  first.checkpoint_path = ckpt;
  first.checkpoint_every = 16;
  first.stop_after = 16;
  run_fleet(spec, first);  // checkpoint now at 16 instances

  FleetOptions rest;
  rest.checkpoint_path = ckpt;
  rest.checkpoint_every = 16;
  const FleetRunResult resumed = run_fleet(spec, rest);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(report_bytes(spec, resumed),
            report_bytes(spec, run_fleet(spec, FleetOptions{})));
  std::remove(ckpt.c_str());
}

TEST(FleetRunner, CheckpointForDifferentSpecIsRefused) {
  const ScenarioSpec spec = tiny_spec();
  const std::string ckpt = temp_path("rtlb_fleet_mismatch.ckpt");
  std::remove(ckpt.c_str());

  FleetOptions opts;
  opts.checkpoint_path = ckpt;
  opts.stop_after = 10;
  run_fleet(spec, opts);

  ScenarioSpec other = tiny_spec();
  other.seed = 99;
  EXPECT_THROW(run_fleet(other, opts), ModelError);

  FleetOptions other_layout = opts;
  other_layout.shards = 2;
  other_layout.shard = 1;
  EXPECT_THROW(run_fleet(spec, other_layout), ModelError);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------- oracles

TEST(FleetOracle, PlantedCorruptionIsFlaggedExactly) {
  const ScenarioSpec spec = tiny_spec();
  FleetOptions opts;
  opts.corrupt_instance = 17;  // arbitrary global index inside [0, 80)
  const FleetRunResult run = run_fleet(spec, opts);
  ASSERT_EQ(run.aggregates.divergences.size(), 1u)
      << run.aggregates.to_json().dump(2);
  const DivergenceRecord& rec = run.aggregates.divergences[0];
  EXPECT_EQ(rec.global_index, 17u);
  EXPECT_EQ(rec.oracle, "parallel");
  // The oracle compares values, but its message still quotes the first
  // differing report byte, exactly as when it diffed report text.
  EXPECT_EQ(rec.detail,
            "4-thread engine diverged from serial: byte 1770: expected "
            "...ds\":[{\"resource\":\"P1\",\"bound\":1,\"peak_density_num\":2,\"peak_d... "
            "got ...ds\":[{\"resource\":\"P1\",\"bound\":2,\"peak_density_num\":2,\"peak_d...");
  EXPECT_EQ(rec.cell_index, 17u / spec.instances_per_cell);
  EXPECT_EQ(rec.instance_index, 17u % spec.instances_per_cell);
  EXPECT_EQ(rec.seed, spec.instance_seed(rec.cell_index, rec.instance_index));
  // The per-cell counter agrees with the global record list.
  EXPECT_EQ(run.aggregates.cells[rec.cell_index].divergences, 1u);
}

TEST(FleetOracle, ResultEqualityTracksReportBytes) {
  // The parallel and session oracles compare AnalysisResults with ==, not
  // their reports. Perturb every field the report serializes, one at a time:
  // == must turn false exactly when the report bytes change.
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  options.lint_level = LintLevel::kReport;
  options.check_certificates = true;
  AnalysisResult base = analyze(*inst.app, options, &inst.platform);
  ASSERT_TRUE(base.dedicated_cost && base.lint && base.certificate && base.certificate_check);
  ASSERT_GE(base.partitions.size(), 2u);
  ASSERT_FALSE(base.partitions[0].blocks.empty());
  ASSERT_GE(base.bounds.size(), 2u);
  ASSERT_FALSE(base.shared_cost.terms.empty());
  ASSERT_FALSE(base.dedicated_cost->node_counts.empty());
  // Give the optional lists one entry each, so their fields can be perturbed.
  base.lint->diagnostics.push_back(Diagnostic{"RTLB-W101", Severity::kWarning, "task 'T1'",
                                              std::string("message"), "hint", 3, 0,
                                              kInvalidResource,
                                              {FixEdit{3, FixEdit::Kind::kReplaceLine, "x"}}});
  base.certificate_check->failures.push_back(CheckFailure{"bound", "T3.psi", "resource 1", "d"});
  const std::string base_bytes = report_json(*inst.app, base).dump();

  using Perturb = std::function<void(AnalysisResult&)>;
  const std::vector<std::pair<std::string, Perturb>> changes = {
      {"est", [](AnalysisResult& r) { r.windows.est[0] += 1; }},
      {"lct", [](AnalysisResult& r) { r.windows.lct[1] -= 1; }},
      {"infeasible", [](AnalysisResult& r) { r.windows.lct[2] = r.windows.est[2]; }},
      {"merged_pred", [](AnalysisResult& r) { r.windows.merged_pred[3].push_back(0); }},
      {"merged_succ", [](AnalysisResult& r) { r.windows.merged_succ[0].push_back(3); }},
      {"partition.resource",
       [](AnalysisResult& r) { r.partitions[0].resource = r.partitions[1].resource; }},
      {"block.start", [](AnalysisResult& r) { r.partitions[0].blocks[0].start += 1; }},
      {"block.finish", [](AnalysisResult& r) { r.partitions[0].blocks[0].finish += 1; }},
      {"block.tasks", [](AnalysisResult& r) { r.partitions[0].blocks[0].tasks.push_back(0); }},
      {"blocks", [](AnalysisResult& r) { r.partitions[0].blocks.pop_back(); }},
      {"bound.resource", [](AnalysisResult& r) { r.bounds[0].resource = r.bounds[1].resource; }},
      {"bound", [](AnalysisResult& r) { r.bounds[0].bound += 1; }},
      {"peak_density (same value)",
       [](AnalysisResult& r) {
         r.bounds[0].peak_density.num *= 2;
         r.bounds[0].peak_density.den *= 2;
       }},
      {"witness_t1", [](AnalysisResult& r) { r.bounds[0].witness_t1 += 1; }},
      {"witness_t2", [](AnalysisResult& r) { r.bounds[0].witness_t2 += 1; }},
      {"witness_demand", [](AnalysisResult& r) { r.bounds[0].witness_demand += 1; }},
      {"intervals_evaluated", [](AnalysisResult& r) { r.bounds[0].intervals_evaluated += 1; }},
      {"use_partitioning", [](AnalysisResult& r) { r.lb_options.use_partitioning ^= true; }},
      {"num_threads", [](AnalysisResult& r) { r.lb_options.num_threads += 1; }},
      {"enable_pruning", [](AnalysisResult& r) { r.lb_options.enable_pruning ^= true; }},
      {"shared.total", [](AnalysisResult& r) { r.shared_cost.total += 1; }},
      {"term.resource",
       [](AnalysisResult& r) { r.shared_cost.terms[0].resource = r.bounds[1].resource; }},
      {"term.units", [](AnalysisResult& r) { r.shared_cost.terms[0].units += 1; }},
      {"term.unit_cost", [](AnalysisResult& r) { r.shared_cost.terms[0].unit_cost += 1; }},
      {"dedicated_cost", [](AnalysisResult& r) { r.dedicated_cost.reset(); }},
      {"feasible", [](AnalysisResult& r) { r.dedicated_cost->feasible ^= true; }},
      {"dedicated.total", [](AnalysisResult& r) { r.dedicated_cost->total += 1; }},
      {"relaxation", [](AnalysisResult& r) { r.dedicated_cost->relaxation += 0.5; }},
      {"relaxation -0", [](AnalysisResult& r) { r.dedicated_cost->relaxation = -0.0; }},
      {"ilp_nodes", [](AnalysisResult& r) { r.dedicated_cost->ilp_nodes += 1; }},
      {"node_counts", [](AnalysisResult& r) { r.dedicated_cost->node_counts[0] += 1; }},
      {"lint", [](AnalysisResult& r) { r.lint.reset(); }},
      {"lint.errors", [](AnalysisResult& r) { r.lint->errors += 1; }},
      {"lint.warnings", [](AnalysisResult& r) { r.lint->warnings += 1; }},
      {"lint.notes", [](AnalysisResult& r) { r.lint->notes += 1; }},
      {"lint.truncated", [](AnalysisResult& r) { r.lint->truncated ^= true; }},
      {"diag.code", [](AnalysisResult& r) { r.lint->diagnostics.back().code = "RTLB-W101x"; }},
      {"diag.severity",
       [](AnalysisResult& r) { r.lint->diagnostics.back().severity = Severity::kNote; }},
      {"diag.subject", [](AnalysisResult& r) { r.lint->diagnostics.back().subject += "x"; }},
      {"diag.message",
       [](AnalysisResult& r) { r.lint->diagnostics.back().message = std::string("messagex"); }},
      {"diag.hint", [](AnalysisResult& r) { r.lint->diagnostics.back().hint = "hintx"; }},
      {"diag.line", [](AnalysisResult& r) { r.lint->diagnostics.back().line += 1; }},
      {"fix.line", [](AnalysisResult& r) { r.lint->diagnostics.back().fixes[0].line += 1; }},
      {"fix.kind",
       [](AnalysisResult& r) {
         r.lint->diagnostics.back().fixes[0].kind = FixEdit::Kind::kDeleteLine;
       }},
      {"fix.text", [](AnalysisResult& r) { r.lint->diagnostics.back().fixes[0].text += "x"; }},
      {"fixes", [](AnalysisResult& r) { r.lint->diagnostics.back().fixes.clear(); }},
      {"certificate", [](AnalysisResult& r) { r.certificate.reset(); }},
      {"certificate_check", [](AnalysisResult& r) { r.certificate_check.reset(); }},
      {"check.valid", [](AnalysisResult& r) { r.certificate_check->valid ^= true; }},
      {"failure.stage", [](AnalysisResult& r) { r.certificate_check->failures[0].stage += "x"; }},
      {"failure.rule", [](AnalysisResult& r) { r.certificate_check->failures[0].rule += "x"; }},
      {"failure.subject",
       [](AnalysisResult& r) { r.certificate_check->failures[0].subject += "x"; }},
      {"failure.detail", [](AnalysisResult& r) { r.certificate_check->failures[0].detail += "x"; }},
  };
  for (const auto& [name, perturb] : changes) {
    AnalysisResult r = base;
    perturb(r);
    const bool bytes_differ = report_json(*inst.app, r).dump() != base_bytes;
    EXPECT_TRUE(bytes_differ) << name << ": perturbation must reach the report";
    EXPECT_EQ(r != base, bytes_differ) << name;
  }

  // A message a pass formatted equal to the registry summary is the same
  // finding as the summary by reference: equal, and rendered alike.
  AnalysisResult owned = base, borrowed = base;
  const char* summary = diag_info("RTLB-E001")->summary;
  owned.lint->diagnostics.back().message = std::string(summary);
  borrowed.lint->diagnostics.back().message = DiagMessage::borrowed(summary);
  EXPECT_TRUE(owned == borrowed);
  EXPECT_EQ(report_json(*inst.app, owned).dump(), report_json(*inst.app, borrowed).dump());

  // Non-finite relaxations all render as null, and compare equal too.
  AnalysisResult nan = base, inf = base;
  nan.dedicated_cost->relaxation = std::numeric_limits<double>::quiet_NaN();
  inf.dedicated_cost->relaxation = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(report_json(*inst.app, nan).dump(), report_json(*inst.app, inf).dump());
  EXPECT_TRUE(nan == inf);
  EXPECT_TRUE(nan == nan);
  EXPECT_TRUE(base == AnalysisResult(base));
}

TEST(FleetOracle, CorruptionIsCaughtFromACheckpointResumeToo) {
  // Divergence records survive the checkpoint round-trip byte-exactly.
  const ScenarioSpec spec = tiny_spec();
  const std::string ckpt = temp_path("rtlb_fleet_corrupt.ckpt");
  std::remove(ckpt.c_str());

  FleetOptions direct;
  direct.corrupt_instance = 5;
  const std::string expected = report_bytes(spec, run_fleet(spec, direct));

  FleetOptions staged = direct;
  staged.checkpoint_path = ckpt;
  staged.checkpoint_every = 11;
  staged.stop_after = 22;
  run_fleet(spec, staged);
  staged.stop_after = 0;
  EXPECT_EQ(report_bytes(spec, run_fleet(spec, staged)), expected);
  std::remove(ckpt.c_str());
}

TEST(FleetOracle, MinimizerWritesAParseableSmallerReproducer) {
  const ScenarioSpec spec = tiny_spec();
  const std::string dir = temp_path("rtlb_fleet_repro");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FleetOptions opts;
  opts.corrupt_instance = 17;
  opts.repro_dir = dir;
  const FleetRunResult run = run_fleet(spec, opts);
  ASSERT_EQ(run.aggregates.divergences.size(), 1u);
  const DivergenceRecord& rec = run.aggregates.divergences[0];
  ASSERT_FALSE(rec.reproducer.empty());

  std::ifstream in(rec.reproducer);
  ASSERT_TRUE(in.good()) << rec.reproducer;
  const ProblemInstance repro = parse_instance(in);
  const ProblemInstance original =
      spec.build_instance(spec.cells()[rec.cell_index], rec.instance_index);
  EXPECT_LE(repro.app->num_tasks(), original.app->num_tasks());
  EXPECT_GE(repro.app->num_tasks(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(FleetOracle, RecurrentReproducerIsMinimizedFromTheLoweredInstance) {
  // A periodic cell's divergence was found on the LOWERED instance, so the
  // reproducer must be minimized from that one -- not from the flat
  // instance generate_workload() would draw from the same parameters. At
  // 12 template tasks the generator splits them over two transactions, so
  // the lowered count differs from the flat one.
  const ScenarioSpec spec = ScenarioSpec::from_text(R"({
    "name": "periodic_tiny",
    "seed": 11,
    "instances_per_cell": 4,
    "axes": {
      "shape": ["layered"],
      "num_tasks": [12],
      "laxity": [1.5],
      "workload": ["periodic"],
      "model": ["shared", "dedicated"]
    },
    "defaults": {"num_resources": 2, "resource_prob": 0.5}
  })");
  const std::string dir = temp_path("rtlb_fleet_repro_periodic");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FleetOptions opts;
  opts.corrupt_instance = 5;
  opts.repro_dir = dir;
  const FleetRunResult run = run_fleet(spec, opts);
  ASSERT_EQ(run.aggregates.divergences.size(), 1u);
  const DivergenceRecord& rec = run.aggregates.divergences[0];
  ASSERT_FALSE(rec.reproducer.empty());

  const WorkloadParams params =
      spec.instance_params(spec.cells()[rec.cell_index], rec.instance_index);
  const std::size_t lowered =
      generate_recurrent_instance(params, ReleaseKind::kPeriodic).app->num_tasks();
  ASSERT_NE(lowered, generate_workload(params).app->num_tasks());

  std::ifstream in(rec.reproducer);
  ASSERT_TRUE(in.good()) << rec.reproducer;
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("minimized from " + std::to_string(lowered) + " to"),
            std::string::npos)
      << header;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Regression pins for divergences the first 10^5-instance run surfaced.

TEST(FleetRegression, CommittedReproducersStayWarmColdIdentical) {
  // Both committed reproducers hit the same root cause: a session query
  // refused by the structural lint gate used to commit empty slices for the
  // skipped model-interpreting passes, so the next clean query served a
  // wiped platform-coverage slice and its warnings vanished from the
  // report. This drives exactly the fleet's session-oracle delta cycle
  // (mutate comp into a structural error, revert, re-query) and requires
  // the warm report to reproduce the cold one byte-for-byte.
  const char* files[] = {"fleet_session_slice_a.rtlb", "fleet_session_slice_b.rtlb"};
  for (const char* name : files) {
    const std::string path =
        std::string(RTLB_SOURCE_DIR) + "/examples/instances/bad/" + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    ProblemInstance inst = parse_instance(in);
    const DedicatedPlatform* platform =
        inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;

    AnalysisOptions base;
    base.model = platform != nullptr ? SystemModel::Dedicated : SystemModel::Shared;
    base.lower_bound.num_threads = 1;
    base.lint_level = LintLevel::kReport;
    base.emit_certificates = true;

    const AnalysisResult cold = analyze(*inst.app, base, platform);
    // The pass whose slice was wiped must have something to lose.
    ASSERT_NE(report_json(*inst.app, cold).dump().find("\"RTLB-W201\""),
              std::string::npos)
        << name;

    AnalysisSession session(*inst.app, base, platform);
    session.analyze();
    const Time c0 = inst.app->task(0).comp;
    session.set_comp(0, c0 > 1 ? c0 - 1 : c0 + 1);
    EXPECT_THROW(session.analyze(), ModelError) << name;  // structural refusal
    session.set_comp(0, c0);
    const AnalysisResult& warm = session.analyze();
    EXPECT_EQ(report_json(*inst.app, warm).dump(),
              report_json(*inst.app, cold).dump())
        << name;
  }
}

}  // namespace
}  // namespace rtlb
