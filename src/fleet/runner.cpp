#include "src/fleet/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/baselines/trivial_bounds.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/model/io.hpp"
#include "src/verify/checker.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {

namespace {

constexpr int kCheckpointVersion = 1;

/// Baseline analysis configuration: the serial reference every oracle is
/// differenced against. One definition so the minimizer replays exactly
/// what the fleet ran.
AnalysisOptions baseline_options(SystemModel model) {
  AnalysisOptions base;
  base.model = model;
  base.lower_bound.num_threads = 1;
  base.lint_level = LintLevel::kReport;
  base.emit_certificates = true;
  return base;
}

/// "byte 217: ...expected... != ...actual..." -- enough context to triage a
/// report divergence without shipping both full documents.
std::string first_diff(const std::string& expected, const std::string& actual) {
  std::size_t i = 0;
  const std::size_t n = std::min(expected.size(), actual.size());
  while (i < n && expected[i] == actual[i]) ++i;
  if (i == n && expected.size() == actual.size()) return "documents equal";
  const std::size_t from = i > 30 ? i - 30 : 0;
  auto window = [&](const std::string& s) {
    return s.substr(from, std::min<std::size_t>(60, s.size() - std::min(from, s.size())));
  };
  return "byte " + std::to_string(i) + ": expected ..." + window(expected) +
         "... got ..." + window(actual) + "...";
}

/// Per-instance outcome POD: exact counter deltas plus any divergence
/// records, written into its own slot by the worker and folded in index
/// order by the (serial) chunk fold -- the repo's standard determinism
/// discipline.
struct Outcome {
  std::size_t cell_index = 0;
  std::uint64_t analyses = 0;
  std::uint64_t lint_errors = 0, lint_warnings = 0, lint_notes = 0;
  bool lint_clean = false;
  bool infeasible = false;
  std::vector<std::int64_t> tightness_pm;
  std::int64_t bound_sum = 0;
  std::uint64_t check_failures = 0;
  std::vector<DivergenceRecord> divergences;
};

using OracleFailure = std::pair<std::string, std::string>;  // (oracle, detail)

/// Run the configured oracles against the baseline result. Returns every
/// disagreement; `analyses` and `check_failures` accumulate bookkeeping.
/// Results are compared as values (AnalysisResult::operator==); report JSON
/// is rendered only to describe a divergence.
std::vector<OracleFailure> run_oracles(const Application& app,
                                       const DedicatedPlatform* platform,
                                       SystemModel model, const FleetOracles& oracles,
                                       bool corrupt_parallel, const AnalysisResult& ref,
                                       std::uint64_t* analyses,
                                       std::uint64_t* check_failures) {
  std::vector<OracleFailure> failures;
  const AnalysisOptions base = baseline_options(model);
  // == is stricter than the report (certificate body, joint bounds, bound
  // index, doubles past %.10g): with equal reports, name the member instead.
  const auto report_diff = [&](const AnalysisResult& r) {
    const std::string diff = first_diff(report_json(app, ref).dump(), report_json(app, r).dump());
    const std::pair<const char*, bool> partly_reported[] = {
        {"dedicated_cost", r.dedicated_cost != ref.dedicated_cost}, {"joint", r.joint != ref.joint},
        {"lint", r.lint != ref.lint}, {"certificate", r.certificate != ref.certificate},
        {"certificate_check", r.certificate_check != ref.certificate_check},
        {"bound_index", r.bound_index != ref.bound_index}};
    const auto* m = std::ranges::find_if(partly_reported, [](const auto& p) { return p.second; });
    if (diff != "documents equal" || m == std::end(partly_reported)) return diff;
    return "reports equal, results differ in " + std::string(m->first);
  };

  if (oracles.parallel) {
    AnalysisOptions par = base;
    par.lower_bound.num_threads = oracles.parallel_threads;
    AnalysisResult r = analyze(app, par, platform);
    ++*analyses;
    if (corrupt_parallel && !r.bounds.empty()) {
      r.bounds.front().bound += 1;  // fault injection: see FleetOptions
      r.rebuild_bound_index();
    }
    // The engine configuration is recorded on the result (and hence the
    // report) by design; normalize it away so the comparison covers the
    // VALUES only.
    r.lb_options = ref.lb_options;
    if (r != ref) {
      failures.emplace_back("parallel", std::to_string(oracles.parallel_threads) +
                                            "-thread engine diverged from serial: " +
                                            report_diff(r));
    }
  }

  if (oracles.session) {
    AnalysisSession session(app, base, platform);
    session.analyze();
    ++*analyses;
    // Drive one mutate/revert delta cycle so the final query is served from
    // the warm invalidation path, not the cold first compute. The perturbed
    // intermediate query may legitimately refuse (comp no longer fits the
    // window); only the reverted query must reproduce the baseline.
    const Time c0 = app.task(0).comp;
    session.set_comp(0, c0 > 1 ? c0 - 1 : c0 + 1);
    try {
      session.analyze();
      ++*analyses;
    } catch (const ModelError&) {
    }
    session.set_comp(0, c0);
    const AnalysisResult& warm = session.analyze();
    ++*analyses;
    if (warm != ref) {
      failures.emplace_back("session", "warm-session result diverged from cold analyze: " +
                                           report_diff(warm));
    }
  }

  if (oracles.certificate) {
    RTLB_CHECK(ref.certificate.has_value(), "baseline emits certificates");
    const std::string ref_cert = certificate_json(*ref.certificate).dump();
    try {
      const Certificate parsed = parse_certificate_text(ref_cert);
      const std::string round = certificate_json(parsed).dump();
      if (round != ref_cert) {
        failures.emplace_back("cert-roundtrip",
                              "certificate JSON round-trip not byte-identical: " +
                                  first_diff(ref_cert, round));
      }
      const CheckReport report = check_certificate(parsed, app, platform);
      if (!report.valid) {
        ++*check_failures;
        std::string summary = report.summary();
        if (summary.size() > 400) summary.resize(400);
        failures.emplace_back("certificate", "independent checker rejected: " + summary);
      }
    } catch (const std::exception& e) {
      ++*check_failures;
      failures.emplace_back("certificate", std::string("emit->check round-trip threw: ") + e.what());
    }
  }

  if (oracles.lint) {
    const LintResult direct = lint(app, platform);
    RTLB_CHECK(ref.lint.has_value(), "baseline ran at kReport; lint must be recorded");
    if (direct != *ref.lint) {
      failures.emplace_back("lint", "standalone linter disagrees with the pipeline gate");
    }
    if (direct.has_errors()) {
      AnalysisOptions strict = base;
      strict.lint_level = LintLevel::kErrors;
      strict.emit_certificates = false;
      bool refused = false;
      try {
        analyze(app, strict, platform);
      } catch (const LintGateError&) {
        refused = true;
      }
      ++*analyses;
      if (!refused) {
        failures.emplace_back("lint",
                              "kErrors gate accepted an instance with error findings");
      }
    }
  }

  return failures;
}

Outcome evaluate_instance(const ScenarioSpec& spec, const ScenarioCell& cell,
                          std::size_t k, std::uint64_t global_index,
                          const FleetOptions& opts) {
  Outcome out;
  out.cell_index = cell.index;
  const std::uint64_t seed = spec.instance_seed(cell.index, k);
  auto record = [&](std::string oracle, std::string detail) {
    DivergenceRecord r;
    r.global_index = global_index;
    r.cell_index = cell.index;
    r.instance_index = k;
    r.seed = seed;
    r.cell = cell.label();
    r.oracle = std::move(oracle);
    r.detail = std::move(detail);
    out.divergences.push_back(std::move(r));
  };

  try {
    // Recurrent cells generate templates and lower them; the oracles then
    // run over the lowered application exactly like a flat cell's.
    const ProblemInstance inst = spec.build_instance(cell, k);
    const DedicatedPlatform* platform =
        cell.model == SystemModel::Dedicated ? &inst.platform : nullptr;

    const AnalysisResult ref = analyze(*inst.app, baseline_options(cell.model), platform);
    ++out.analyses;

    // Streaming statistics from the baseline.
    RTLB_CHECK(ref.lint.has_value(), "baseline runs the lint gate at kReport");
    out.lint_errors = static_cast<std::uint64_t>(ref.lint->errors);
    out.lint_warnings = static_cast<std::uint64_t>(ref.lint->warnings);
    out.lint_notes = static_cast<std::uint64_t>(ref.lint->notes);
    out.lint_clean = ref.lint->clean();
    out.infeasible = ref.infeasible(*inst.app);
    const std::vector<std::int64_t> work = all_work_bounds(*inst.app, ref.windows);
    RTLB_CHECK(work.size() == ref.bounds.size(), "work bounds align with resource_set");
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (work[i] <= 0) continue;
      out.tightness_pm.push_back(ref.bounds[i].bound * 1000 / work[i]);
      out.bound_sum += ref.bounds[i].bound;
    }

    const bool corrupt = global_index == opts.corrupt_instance;
    for (OracleFailure& f :
         run_oracles(*inst.app, platform, cell.model, opts.oracles, corrupt, ref,
                     &out.analyses, &out.check_failures)) {
      record(std::move(f.first), std::move(f.second));
    }
  } catch (const std::exception& e) {
    record("exception", e.what());
  }
  return out;
}

/// Rebuild `app` without task `victim` (edges incident to it dropped, all
/// other attributes preserved). Shares the original catalog.
Application without_task(const Application& app, TaskId victim) {
  Application out(app.catalog());
  std::vector<TaskId> remap(app.num_tasks(), kInvalidTask);
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    if (i == victim) continue;
    remap[i] = out.add_task(app.task(i));
  }
  // Re-add edges in (from, to) order, so a reproducer's edge lines do not
  // depend on the order the original edges were declared in.
  std::vector<std::pair<TaskId, Time>> out_edges;
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    out_edges.clear();
    for (std::size_t k = 0; k < app.successors(i).size(); ++k) {
      out_edges.emplace_back(app.successors(i)[k], app.successor_messages(i)[k]);
    }
    std::sort(out_edges.begin(), out_edges.end());
    for (const auto& [to, msg] : out_edges) {
      if (remap[i] != kInvalidTask && remap[to] != kInvalidTask) {
        out.add_edge(remap[i], remap[to], msg);
      }
    }
  }
  return out;
}

/// True when the named oracle still fails on `app` -- the minimizer's test
/// function. Replays the baseline and just that oracle.
bool oracle_still_fails(const Application& app, const DedicatedPlatform* platform,
                        SystemModel model, const FleetOracles& all,
                        const std::string& oracle, bool corrupt) {
  FleetOracles only;
  only.parallel = oracle == "parallel";
  only.session = oracle == "session";
  only.certificate = oracle == "certificate" || oracle == "cert-roundtrip";
  only.lint = oracle == "lint";
  only.parallel_threads = all.parallel_threads;
  try {
    const AnalysisResult ref = analyze(app, baseline_options(model), platform);
    std::uint64_t analyses = 0, check_failures = 0;
    const auto failures =
        run_oracles(app, platform, model, only, corrupt, ref, &analyses, &check_failures);
    return std::ranges::any_of(failures, [&](const OracleFailure& f) { return f.first == oracle; });
  } catch (const std::exception&) {
    // The baseline itself failing still reproduces an "exception" record.
    return oracle == "exception";
  }
}

/// Greedy delta-minimization: repeatedly drop any task whose removal keeps
/// the oracle failing, to a fixpoint. Returns the shrunken application
/// (possibly the original).
Application minimize_failure(const Application& app, const DedicatedPlatform* platform,
                             SystemModel model, const FleetOracles& oracles,
                             const std::string& oracle, bool corrupt) {
  Application current = app;
  bool improved = true;
  while (improved && current.num_tasks() > 1) {
    improved = false;
    // Descending victim order keeps earlier candidates' ids stable across
    // one sweep and biases toward dropping sink-side tasks first.
    for (TaskId victim = static_cast<TaskId>(current.num_tasks()); victim-- > 0;) {
      if (current.num_tasks() <= 1) break;
      Application candidate = without_task(current, victim);
      try {
        candidate.validate();
        if (oracle_still_fails(candidate, platform, model, oracles, oracle, corrupt)) {
          current = std::move(candidate);
          improved = true;
        }
      } catch (const std::exception&) {
        // Removal produced an invalid or differently-failing instance; keep
        // the task.
      }
    }
  }
  return current;
}

struct Checkpoint {
  std::uint64_t owned_done = 0;
  FleetAggregates aggregates;
};

std::string checkpoint_text(std::uint64_t fingerprint, const FleetOptions& opts,
                            std::uint64_t owned_done, const FleetAggregates& agg) {
  JsonWriter w(2);
  w.begin_object()
      .field("fleet_checkpoint", kCheckpointVersion)
      .field("fingerprint", static_cast<std::int64_t>(fingerprint))
      .field("shards", opts.shards)
      .field("shard", opts.shard)
      .field("owned_done", static_cast<std::int64_t>(owned_done))
      .field("aggregates", agg.to_json())
      .end_object();
  return w.take() + "\n";
}

Checkpoint load_checkpoint(const std::string& text, std::uint64_t fingerprint,
                           const FleetOptions& opts) {
  const Json doc = Json::parse(text);
  const Json* version = doc.find("fleet_checkpoint");
  if (version == nullptr || !version->is_int() || version->as_int() != kCheckpointVersion) {
    throw ModelError("fleet checkpoint: unknown version");
  }
  const Json* fp = doc.find("fingerprint");
  if (fp == nullptr || !fp->is_int() ||
      static_cast<std::uint64_t>(fp->as_int()) != fingerprint) {
    throw ModelError("fleet checkpoint: written for a different scenario spec");
  }
  const Json* shards = doc.find("shards");
  const Json* shard = doc.find("shard");
  if (shards == nullptr || shard == nullptr || shards->as_int() != opts.shards ||
      shard->as_int() != opts.shard) {
    throw ModelError("fleet checkpoint: written for a different shard layout");
  }
  const Json* done = doc.find("owned_done");
  const Json* agg = doc.find("aggregates");
  if (done == nullptr || !done->is_int() || agg == nullptr) {
    throw ModelError("fleet checkpoint: malformed");
  }
  Checkpoint cp;
  cp.owned_done = static_cast<std::uint64_t>(done->as_int());
  cp.aggregates = FleetAggregates::from_json(*agg);
  return cp;
}

std::uint64_t count_written_reproducers(const FleetAggregates& agg) {
  std::uint64_t n = 0;
  for (const DivergenceRecord& r : agg.divergences) n += !r.reproducer.empty();
  return n;
}

}  // namespace

FleetRunResult run_fleet(const ScenarioSpec& spec, const FleetOptions& opts) {
  RTLB_CHECK(opts.shards >= 1, "fleet: shards must be >= 1");
  RTLB_CHECK(opts.shard >= 0 && opts.shard < opts.shards, "fleet: shard out of range");
  RTLB_CHECK(opts.checkpoint_every >= 1, "fleet: checkpoint_every must be >= 1");

  const std::vector<ScenarioCell> cells = spec.cells();
  const std::uint64_t total = spec.total_instances();
  const std::uint64_t shards = static_cast<std::uint64_t>(opts.shards);
  const std::uint64_t shard = static_cast<std::uint64_t>(opts.shard);
  // Owned indices are g = shard + t * shards for t in [0, owned_total).
  const std::uint64_t owned_total = total / shards + (shard < total % shards ? 1 : 0);

  FleetRunResult run;
  run.aggregates = FleetAggregates::for_spec(spec);
  std::uint64_t owned_done = 0;
  // Checkpoints carry the spec's hash only: one canonical dump per run.
  const std::uint64_t fingerprint = opts.checkpoint_path.empty() ? 0 : spec.fingerprint();

  if (!opts.checkpoint_path.empty()) {
    if (std::optional<std::string> text = read_file_text(opts.checkpoint_path)) {
      Checkpoint cp = load_checkpoint(*text, fingerprint, opts);
      owned_done = cp.owned_done;
      run.aggregates = std::move(cp.aggregates);
      run.resumed = true;
    }
  }

  // No more workers than instances left to evaluate.
  ThreadPool pool(static_cast<unsigned>(std::min<std::uint64_t>(
      ThreadPool::resolve_threads(opts.threads), owned_total - owned_done)));
  std::uint64_t reproducers_written = count_written_reproducers(run.aggregates);
  std::vector<Outcome> slots;

  while (owned_done < owned_total) {
    std::uint64_t chunk = std::min<std::uint64_t>(opts.checkpoint_every, owned_total - owned_done);
    if (opts.stop_after > 0) {
      if (run.processed_this_run >= opts.stop_after) break;
      chunk = std::min(chunk, opts.stop_after - run.processed_this_run);
    }

    slots.assign(static_cast<std::size_t>(chunk), Outcome{});
    pool.parallel_for(static_cast<std::size_t>(chunk), [&](std::size_t j) {
      const std::uint64_t g = shard + (owned_done + j) * shards;
      const std::size_t cell_index = static_cast<std::size_t>(g / spec.instances_per_cell);
      const std::size_t k = static_cast<std::size_t>(g % spec.instances_per_cell);
      slots[j] = evaluate_instance(spec, cells[cell_index], k, g, opts);
    });

    // Serial fold in index order -- aggregates are commutative counters, but
    // divergence minimization (budgeted) must pick victims deterministically.
    for (Outcome& out : slots) {
      CellAggregate& cell = run.aggregates.cells[out.cell_index];
      ++run.aggregates.instances;
      run.aggregates.analyses += out.analyses;
      ++cell.instances;
      cell.lint_errors += out.lint_errors;
      cell.lint_warnings += out.lint_warnings;
      cell.lint_notes += out.lint_notes;
      cell.lint_clean_instances += out.lint_clean ? 1 : 0;
      cell.infeasible_instances += out.infeasible ? 1 : 0;
      for (std::int64_t pm : out.tightness_pm) {
        ++cell.resources_measured;
        cell.tightness_per_mille_sum += pm;
        cell.tightness.add(pm);
      }
      cell.bound_sum += out.bound_sum;
      cell.check_failures += out.check_failures;
      for (DivergenceRecord& rec : out.divergences) {
        ++cell.divergences;
        if (!opts.repro_dir.empty() && reproducers_written < opts.max_reproducers) {
          try {
            const ScenarioCell& sc = cells[rec.cell_index];
            const ProblemInstance inst = spec.build_instance(sc, rec.instance_index);
            const bool corrupt = rec.global_index == opts.corrupt_instance;
            const DedicatedPlatform* platform =
                sc.model == SystemModel::Dedicated ? &inst.platform : nullptr;
            const Application minimized = minimize_failure(
                *inst.app, platform, sc.model, opts.oracles, rec.oracle, corrupt);
            const std::string path = opts.repro_dir + "/" + spec.name + "_g" +
                                     std::to_string(rec.global_index) + "_" + rec.oracle +
                                     ".rtlb";
            std::string text = "# rtlb_fleet reproducer (minimized from " +
                               std::to_string(inst.app->num_tasks()) + " to " +
                               std::to_string(minimized.num_tasks()) + " tasks)\n# scenario " +
                               spec.name + " cell " + rec.cell + " instance " +
                               std::to_string(rec.instance_index) + " seed " +
                               std::to_string(rec.seed) + "\n# oracle " + rec.oracle + ": " +
                               rec.detail + "\n" +
                               serialize_instance(minimized, inst.platform);
            if (atomic_write_file(path, text)) {
              rec.reproducer = path;
              ++reproducers_written;
            }
          } catch (const std::exception&) {
            // Minimization is best-effort; the record without a reproducer
            // still carries the full seed coordinates.
          }
        }
        run.aggregates.divergences.push_back(std::move(rec));
      }
    }

    owned_done += chunk;
    run.processed_this_run += chunk;

    if (!opts.checkpoint_path.empty()) {
      const std::string text = checkpoint_text(fingerprint, opts, owned_done, run.aggregates);
      if (!atomic_write_file(opts.checkpoint_path, text)) {
        throw ModelError("fleet: cannot write checkpoint " + opts.checkpoint_path);
      }
    }
    if (opts.progress) {
      std::fprintf(stderr, "rtlb_fleet: shard %d/%d %llu/%llu instances, %zu divergences\n",
                   opts.shard, opts.shards, static_cast<unsigned long long>(owned_done),
                   static_cast<unsigned long long>(owned_total),
                   run.aggregates.divergences.size());
    }
  }

  run.complete = owned_done >= owned_total;
  return run;
}

JsonRender fleet_report_json(const ScenarioSpec& spec, const FleetAggregates& aggregates,
                             int shards, int shard, bool complete) {
  return JsonRender([&spec, &aggregates, shards, shard, complete](JsonWriter& w) {
    // One canonical tree per report: hashed for the fingerprint, written as
    // the "spec" block.
    const Json canonical = spec.to_json();
    w.begin_object()
        .field("fleet", spec.name)
        .field("fingerprint", static_cast<std::int64_t>(ScenarioSpec::fingerprint(canonical)))
        .field("shards", shards)
        .field("shard", shard)
        .field("complete", complete)
        .field("total_instances", static_cast<std::int64_t>(spec.total_instances()))
        .field("spec", canonical)
        .field("aggregates", aggregates.to_json())
        .end_object();
  });
}

MergedFleet merge_fleet_reports(const std::vector<Json>& shard_reports) {
  if (shard_reports.empty()) throw ModelError("fleet merge: no shard reports");
  const Json* spec_doc = shard_reports.front().find("spec");
  if (spec_doc == nullptr) throw ModelError("fleet merge: report missing 'spec'");
  const ScenarioSpec spec = ScenarioSpec::from_json(*spec_doc);
  const std::int64_t fingerprint = static_cast<std::int64_t>(spec.fingerprint());

  std::vector<const Json*> by_shard(shard_reports.size(), nullptr);
  for (const Json& report : shard_reports) {
    const Json* fp = report.find("fingerprint");
    const Json* shards = report.find("shards");
    const Json* shard = report.find("shard");
    const Json* complete = report.find("complete");
    if (fp == nullptr || shards == nullptr || shard == nullptr || complete == nullptr) {
      throw ModelError("fleet merge: malformed shard report");
    }
    if (fp->as_int() != fingerprint) {
      throw ModelError("fleet merge: shard reports disagree on the scenario spec");
    }
    if (shards->as_int() != static_cast<std::int64_t>(shard_reports.size())) {
      throw ModelError("fleet merge: expected " + std::to_string(shard_reports.size()) +
                       " shards, report says " + std::to_string(shards->as_int()));
    }
    if (!complete->as_bool()) {
      throw ModelError("fleet merge: shard " + std::to_string(shard->as_int()) +
                       " is incomplete");
    }
    const std::int64_t s = shard->as_int();
    if (s < 0 || s >= static_cast<std::int64_t>(by_shard.size()) ||
        by_shard[static_cast<std::size_t>(s)] != nullptr) {
      throw ModelError("fleet merge: duplicate or out-of-range shard index " +
                       std::to_string(s));
    }
    by_shard[static_cast<std::size_t>(s)] = &report;
  }

  MergedFleet merged{spec, FleetAggregates::for_spec(spec)};
  for (const Json* report : by_shard) {
    const Json* agg = report->find("aggregates");
    if (agg == nullptr) throw ModelError("fleet merge: report missing 'aggregates'");
    merged.aggregates.merge(FleetAggregates::from_json(*agg));
  }
  return merged;
}

}  // namespace rtlb
