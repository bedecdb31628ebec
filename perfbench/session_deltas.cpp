// session_deltas: delta-by-delta design exploration -- the synthesis inner
// loop through two AnalysisSessions at LintLevel::kReport, certificates off.
//
// Closed loop, one client, one thread. Operations come in pairs, the one
// delta pattern the repository itself drives (the fleet's session oracle,
// src/fleet/runner.cpp): one delta, then the delta that reverts it, each
// followed by analyze(). The pairs cycle through the five delta kinds the
// two sessions take -- set_deadline, set_comp and set_message on a flat
// many-block instance, set_transaction_period and set_template_comp on a
// periodic workload -- each on a seeded target, and a seeded cycle of pairs
// repeats for the whole run. Every result is checked, untimed, against a
// cold run_pipeline of the instance the session should hold.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "harness.hpp"
#include "src/common/random.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/workload/taskset_gen.hpp"
#include "src/workload/workload.hpp"

namespace perfbench {

using namespace rtlb;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kGroups = 16;
constexpr std::size_t kPerGroup = 24;
constexpr Time kGroupSpacing = 200;  ///< keeps the groups' windows disjoint
constexpr int kExtraSetupReps = 24;
constexpr std::size_t kPairs = 50;  ///< pairs in the repeated cycle
constexpr std::size_t kRecurrentTasks = 96;
constexpr std::uint64_t kGoldenSeed = 1;
constexpr int kGoldenOps = 48;

/// `kGroups` groups of chained tasks, each group on its own processor type
/// and far enough apart in time that every group is its own partition
/// block: a delta to one task leaves every other block reusable. This is
/// the best case for the block cache, by construction.
struct FlatInstance {
  std::unique_ptr<ResourceCatalog> catalog;
  std::unique_ptr<Application> app;
  std::vector<std::pair<TaskId, TaskId>> edges;
};

FlatInstance make_flat(std::uint64_t seed) {
  Rng rng(seed);
  FlatInstance f;
  f.catalog = std::make_unique<ResourceCatalog>();
  std::vector<ResourceId> procs;
  char name[32];
  for (std::size_t g = 0; g < kGroups; ++g) {
    std::snprintf(name, sizeof name, "P%zu", g + 1);
    procs.push_back(f.catalog->add_processor_type(name, rng.uniform(5, 20)));
  }
  const ResourceId r1 = f.catalog->add_resource("r1", rng.uniform(1, 10));
  const ResourceId r2 = f.catalog->add_resource("r2", rng.uniform(1, 10));
  f.app = std::make_unique<Application>(*f.catalog);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const Time origin = static_cast<Time>(g) * kGroupSpacing;
    TaskId previous = kInvalidTask;
    for (std::size_t k = 0; k < kPerGroup; ++k) {
      Task t;
      std::snprintf(name, sizeof name, "g%zut%zu", g + 1, k + 1);
      t.name = name;
      t.comp = rng.uniform(2, 7);
      t.release = origin + static_cast<Time>(2 * k) + rng.uniform(0, 2);
      t.deadline = t.release + 40 + rng.uniform(0, 20);
      t.proc = procs[g];
      if (rng.chance(0.3)) t.resources.push_back(r1);
      if (rng.chance(0.3)) t.resources.push_back(r2);
      const TaskId id = f.app->add_task(std::move(t));
      if (previous != kInvalidTask && rng.chance(0.25)) {
        f.app->add_edge(previous, id, rng.uniform(0, 3));
        f.edges.emplace_back(previous, id);
      }
      previous = id;
    }
  }
  return f;
}

WorkloadParams recurrent_params(std::uint64_t seed) {
  WorkloadParams p;
  p.seed = seed;
  p.num_tasks = 48;
  p.laxity = 2.5;
  p.num_resources = 2;
  return p;
}

/// The seeds of a run's two inputs. The periodic workload has 48 template
/// tasks; the generator draws each transaction's activation count, so the
/// lowered size varies by seed 1:4. Its seed is the first of the run seed's
/// sub-seeds whose workload lowers to exactly kRecurrentTasks tasks and has
/// transactions of more than one period, which keeps the session's cost the
/// same for every seed. The search runs once, outside the set-up time.
struct Seeds {
  std::uint64_t flat = 0;
  std::uint64_t recurrent = 0;
};

Seeds seeds_for(std::uint64_t seed) {
  Seeds seeds;
  seeds.flat = split_seed(seed, 1);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::uint64_t candidate = split_seed(seed, 2, k);
    const ProblemInstance inst =
        generate_recurrent_instance(recurrent_params(candidate), ReleaseKind::kPeriodic);
    const std::vector<Transaction>& trs = inst.workload.transactions;
    const auto [shortest, longest] = std::minmax_element(
        trs.begin(), trs.end(),
        [](const Transaction& a, const Transaction& b) { return a.period < b.period; });
    if (inst.app->num_tasks() == kRecurrentTasks && shortest->period < longest->period) {
      seeds.recurrent = candidate;
      return seeds;
    }
  }
  throw std::runtime_error("no periodic workload of the benchmark's size");
}

AnalysisOptions session_options(Trace* trace) {
  AnalysisOptions o;
  o.lint_level = LintLevel::kReport;
  o.trace = trace;
  return o;
}

/// The two sessions and the pristine inputs their deltas are drawn around.
struct Sessions {
  FlatInstance flat;
  ProblemInstance recurrent;
  std::unique_ptr<AnalysisSession> flat_session;
  std::unique_ptr<AnalysisSession> recurrent_session;
};

std::unique_ptr<Sessions> make_sessions(const Seeds& seeds, Trace* trace) {
  auto s = std::make_unique<Sessions>();
  s->flat = make_flat(seeds.flat);
  s->recurrent =
      generate_recurrent_instance(recurrent_params(seeds.recurrent), ReleaseKind::kPeriodic);
  s->flat_session = std::make_unique<AnalysisSession>(*s->flat.app, session_options(trace));
  s->recurrent_session = std::make_unique<AnalysisSession>(
      *s->recurrent.catalog, s->recurrent.workload, session_options(trace));
  for (AnalysisSession* session : {s->flat_session.get(), s->recurrent_session.get()}) {
    session->set_verify(false);
    session->analyze();
  }
  return s;
}

/// One delta of a pair: its kind and target (task, edge or transaction
/// index `a`; template task index `b`).
struct Delta {
  enum Kind { kDeadline, kComp, kMessage, kPeriod, kTemplateComp };
  Kind kind = kDeadline;
  std::size_t a = 0;
  std::size_t b = 0;

  bool recurrent() const { return kind == kPeriod || kind == kTemplateComp; }
};

/// One operation: the pair's delta, applied (`revert` false) or undone, and
/// its position in the cycle.
struct Step {
  Delta delta;
  bool revert = false;
  std::size_t input = 0;
};

Time pristine_value(const Delta& d, const Sessions& s) {
  const Application& app = *s.flat.app;
  const Workload& workload = s.recurrent.workload;
  switch (d.kind) {
    case Delta::kDeadline: return app.task(static_cast<TaskId>(d.a)).deadline;
    case Delta::kComp: return app.task(static_cast<TaskId>(d.a)).comp;
    case Delta::kMessage: return app.message(s.flat.edges[d.a].first, s.flat.edges[d.a].second);
    case Delta::kPeriod: return workload.transactions[d.a].period;
    case Delta::kTemplateComp: return workload.transactions[d.a].tasks[d.b].comp;
  }
  return 0;
}

/// The changed value: one step, as the fleet oracle's set_comp takes it --
/// down unless already at the minimum -- except that a deadline widens by
/// one and a period doubles, which keep the instance feasible and its
/// hyperperiod unchanged.
Time mutated_value(const Delta& d, const Sessions& s) {
  const Time v = pristine_value(d, s);
  switch (d.kind) {
    case Delta::kDeadline: return v + 1;
    case Delta::kPeriod: return 2 * v;
    case Delta::kMessage: return v > 0 ? v - 1 : v + 1;
    case Delta::kComp:
    case Delta::kTemplateComp: return v > 1 ? v - 1 : v + 1;
  }
  return v;
}

/// A seeded cycle of kPairs pairs, repeated: operation k of every cycle
/// runs the same delta on the same session state. The kinds cycle in a
/// fixed order, so every ten operations hold each kind's delta and revert
/// once.
class Pairs {
 public:
  Pairs(std::uint64_t seed, const Sessions& s) : rng_(seed) {
    const std::vector<Transaction>& trs = s.recurrent.workload.transactions;
    Time hyper = 1;
    for (const Transaction& tr : trs) hyper = std::max(hyper, tr.period);
    // Periods are harmonic: a doubled period that stays within the largest
    // leaves the hyperperiod as it is.
    for (std::size_t x = 0; x < trs.size(); ++x) {
      if (2 * trs[x].period <= hyper) doublable_.push_back(x);
    }
    for (std::size_t k = 0; k < kPairs; ++k) {
      cycle_.push_back(draw(static_cast<Delta::Kind>(k % 5), s));
    }
  }

  /// The deltas of the cycle's pairs.
  const std::vector<Delta>& deltas() const { return cycle_; }

  Step next() {
    const std::size_t k = op_++ % (2 * cycle_.size());
    return {cycle_[k / 2], k % 2 == 1, k};
  }

  /// Whether the next operation is a pair's delta, not a revert.
  bool at_pair_start() const { return op_ % 2 == 0; }

 private:
  Delta draw(Delta::Kind kind, const Sessions& s) {
    Delta d;
    d.kind = kind;
    if (kind == Delta::kMessage && s.flat.edges.empty()) d.kind = Delta::kDeadline;
    if (kind == Delta::kPeriod && doublable_.empty()) d.kind = Delta::kTemplateComp;
    const std::vector<Transaction>& trs = s.recurrent.workload.transactions;
    switch (d.kind) {
      case Delta::kDeadline:
      case Delta::kComp: d.a = rng_.index(s.flat.app->num_tasks()); break;
      case Delta::kMessage: d.a = rng_.index(s.flat.edges.size()); break;
      case Delta::kPeriod: d.a = doublable_[rng_.index(doublable_.size())]; break;
      case Delta::kTemplateComp:
        d.a = rng_.index(trs.size());
        d.b = rng_.index(trs[d.a].tasks.size());
        break;
    }
    return d;
  }

  Rng rng_;
  std::vector<std::size_t> doublable_;
  std::vector<Delta> cycle_;
  std::uint64_t op_ = 0;
};

void apply(const Step& step, Sessions& s) {
  const Delta& d = step.delta;
  const Time value = step.revert ? pristine_value(d, s) : mutated_value(d, s);
  AnalysisSession& flat = *s.flat_session;
  AnalysisSession& rec = *s.recurrent_session;
  const TaskId task = static_cast<TaskId>(d.a);
  switch (d.kind) {
    case Delta::kDeadline: flat.set_deadline(task, value); break;
    case Delta::kComp: flat.set_comp(task, value); break;
    case Delta::kMessage:
      flat.set_message(s.flat.edges[d.a].first, s.flat.edges[d.a].second, value);
      break;
    case Delta::kPeriod:
      rec.set_transaction_period(s.recurrent.workload.transactions[d.a].name, value);
      break;
    case Delta::kTemplateComp: {
      const Transaction& tr = s.recurrent.workload.transactions[d.a];
      rec.set_template_comp(tr.name, tr.tasks[d.b].name, value);
      break;
    }
  }
}

/// Digests of cold run_pipeline reports, one per instance a session can
/// hold: the two pristine instances and each pristine instance with one
/// delta applied. Each is built from the pristine inputs, not from the
/// session, and computed once. Sessions built from the same seed share them.
class References {
 public:
  /// Compute every reference the pairs ask for, so that no cold replay
  /// runs between timed operations and cools the caches they use.
  void prepare(const Pairs& pairs, const Sessions& s) {
    for (const Delta& d : pairs.deltas()) {
      expected({d, false}, s);
      expected({d, true}, s);
    }
  }

  const std::string& expected(const Step& step, const Sessions& s) {
    const Delta& d = step.delta;
    const auto key = step.revert ? std::make_tuple(d.recurrent() ? -2 : -1, std::size_t{0},
                                                   std::size_t{0})
                                 : std::make_tuple(static_cast<int>(d.kind), d.a, d.b);
    auto it = digests_.find(key);
    if (it == digests_.end()) it = digests_.emplace(key, cold(step, s)).first;
    return it->second;
  }

 private:
  static std::string cold(const Step& step, const Sessions& s) {
    const Delta& d = step.delta;
    if (d.recurrent()) {
      Workload workload = s.recurrent.workload;
      if (!step.revert) {
        Transaction& tr = workload.transactions[d.a];
        (d.kind == Delta::kPeriod ? tr.period : tr.tasks[d.b].comp) = mutated_value(d, s);
      }
      return cold_digest(lower_workload(*s.recurrent.catalog, workload));
    }
    Application app = *s.flat.app;
    if (!step.revert) {
      const Time value = mutated_value(d, s);
      const TaskId task = static_cast<TaskId>(d.a);
      switch (d.kind) {
        case Delta::kDeadline: app.task(task).deadline = value; break;
        case Delta::kComp: app.task(task).comp = value; break;
        default: app.set_message(s.flat.edges[d.a].first, s.flat.edges[d.a].second, value);
      }
    }
    return cold_digest(app);
  }

  static std::string cold_digest(const Application& app) {
    return digest(report_json(app, run_pipeline(app, session_options(nullptr))).dump());
  }

  std::map<std::tuple<int, std::size_t, std::size_t>, std::string> digests_;
};

/// Whether a served result is byte-equal to its cold reference; the report
/// bytes also go to `keep` when given.
bool check(const Step& step, const Sessions& s, const AnalysisSession& session,
           const AnalysisResult& served, References& refs, Digest* keep) {
  const std::string report = report_json(session.app(), served).dump();
  if (keep != nullptr) keep->add(report);
  return digest(report) == refs.expected(step, s);
}

/// Closed loop of mutate + analyze() operations for `seconds`, or exactly
/// `max_ops` operations when that is positive. With a profile, every
/// operation is traced and none is timed. With a sampler, the loop moves
/// from CPU to CPU, and set-up repetitions -- which rebuild `sessions` --
/// run between pairs.
void delta_loop(std::unique_ptr<Sessions>& sessions, Pairs& pairs, References& refs,
                double seconds, int max_ops, LayerProfile* profile, SetupSampler* sampler,
                RunResult& result, Digest* keep = nullptr) {
  std::optional<CpuRotor> rotor;
  if (sampler != nullptr) rotor.emplace();
  Budget budget(seconds);
  for (int done = 0; max_ops > 0 ? done < max_ops : budget.left(); ++done) {
    if (sampler != nullptr && pairs.at_pair_start()) {
      rotor->poll();
      sampler->poll();
    }
    Sessions& s = *sessions;
    const Step step = pairs.next();
    AnalysisSession& session = step.delta.recurrent() ? *s.recurrent_session : *s.flat_session;
    try {
      if (profile == nullptr) {
        const Clock::time_point start = Clock::now();
        apply(step, s);
        const AnalysisResult& served = session.analyze();
        const double ms = seconds_since(start) * 1000.0;
        const bool ok = check(step, s, session, served, refs, keep);
        if (!ok) result.problem("session result differs from a cold run_pipeline");
        result.op(ms, 1, ok, step.input);
        continue;
      }
      Trace* trace = profile->trace();
      profile->begin_op();
      const AnalysisResult* served = nullptr;
      try {
        {
          ScopedSpan span(trace, "session.mutate");
          apply(step, s);
        }
        ScopedSpan span(trace, "session.query");
        served = &session.analyze();
      } catch (...) {
        profile->end_op();
        throw;
      }
      profile->end_op();
      if (step.delta.recurrent()) {
        // The session re-lowers inside session.mutate; time that lowering
        // again here, outside the operation, as its own layer.
        const Clock::time_point start = Clock::now();
        const Application lowered = lower_workload(*s.recurrent.catalog, *session.workload());
        profile->add_outside("workload.lower", seconds_since(start) * 1e6);
      }
      if (!check(step, s, session, *served, refs, nullptr)) {
        result.problem("traced session result differs from a cold run_pipeline");
      }
      result.untimed_op();
    } catch (const std::exception& e) {
      result.fail(e.what());
    }
  }
}

SessionStats total_stats(const Sessions& s) {
  const SessionStats a = s.flat_session->stats();
  const SessionStats b = s.recurrent_session->stats();
  SessionStats t;
  t.queries = a.queries + b.queries;
  t.query_hits = a.query_hits + b.query_hits;
  t.lint_pass_hits = a.lint_pass_hits + b.lint_pass_hits;
  t.lint_pass_misses = a.lint_pass_misses + b.lint_pass_misses;
  t.window_hits = a.window_hits + b.window_hits;
  t.window_misses = a.window_misses + b.window_misses;
  t.block_hits = a.block_hits + b.block_hits;
  t.block_misses = a.block_misses + b.block_misses;
  return t;
}

/// Reuse ratios of the traced phase, each with its base (lookups made).
void record_reuse(const SessionStats& before, const SessionStats& after, RunResult& result) {
  auto ratio = [&](const std::string& name, const std::string& base_name, std::uint64_t hits,
                   std::uint64_t base) {
    result.layers[name] = base > 0 ? static_cast<double>(hits) / static_cast<double>(base) : 0;
    result.layers[base_name] = static_cast<double>(base);
  };
  ratio("session.block_hit_ratio", "session.block_lookups", after.block_hits - before.block_hits,
        after.block_hits + after.block_misses - before.block_hits - before.block_misses);
  ratio("session.lint_pass_hit_ratio", "session.lint_pass_lookups",
        after.lint_pass_hits - before.lint_pass_hits,
        after.lint_pass_hits + after.lint_pass_misses - before.lint_pass_hits -
            before.lint_pass_misses);
  ratio("session.window_hit_ratio", "session.window_lookups",
        after.window_hits - before.window_hits,
        after.window_hits + after.window_misses - before.window_hits - before.window_misses);
  ratio("session.query_hit_ratio", "session.queries", after.query_hits - before.query_hits,
        after.queries - before.queries);
}

}  // namespace

void run_session_deltas(const Options& options, RunResult& result) {
  result.threads = static_cast<int>(
      ThreadPool::resolve_threads(session_options(nullptr).lower_bound.num_threads));
  {
    Golden golden(options, result);
    Digest reports;
    std::unique_ptr<Sessions> g = make_sessions(seeds_for(kGoldenSeed), nullptr);
    Pairs pairs(split_seed(kGoldenSeed, 3), *g);
    References refs;
    RunResult scratch;
    delta_loop(g, pairs, refs, 0, kGoldenOps, nullptr, nullptr, scratch, &reports);
    if (scratch.failed != 0) result.problem("golden delta sequence failed");
    for (const std::string& p : scratch.problems) result.problem("golden: " + p);
    golden.check("report", reports);
  }

  // Set-up: generate both inputs, build both sessions, serve their first
  // query. The later repetitions rebuild the sessions in place, spread over
  // the measurement. A rebuild empties the session caches, so the next few
  // operations run colder than the same inputs' other repetitions; the
  // fastest-per-input metrics leave them out. Set-up takes a few
  // milliseconds, so one repetition builds the sessions once on each CPU.
  const Seeds seeds = seeds_for(options.seed);
  std::unique_ptr<Sessions> sessions;
  auto set_up = [&] {
    return mean_on_each_cpu([&] {
      sessions.reset();
      const Clock::time_point start = Clock::now();
      sessions = make_sessions(seeds, nullptr);
      return seconds_since(start);
    });
  };
  result.setup_s.push_back(set_up());
  Pairs pairs(split_seed(options.seed, 3), *sessions);
  References refs;
  refs.prepare(pairs, *sessions);

  const double timed_s = options.trace ? options.seconds / 2 : options.seconds;
  SetupSampler sampler(result, timed_s, kExtraSetupReps, set_up);
  delta_loop(sessions, pairs, refs, timed_s, 0, nullptr, &sampler, result);

  if (options.trace) {
    LayerProfile profile;
    std::unique_ptr<Sessions> traced = make_sessions(seeds, profile.trace());
    profile.trace()->clear();  // the priming queries belong to no operation
    Pairs traced_pairs(split_seed(options.seed, 3), *traced);
    const SessionStats before = total_stats(*traced);
    delta_loop(traced, traced_pairs, refs, options.seconds / 2, 0, &profile, nullptr, result);
    record_reuse(before, total_stats(*traced), result);
    record_profile(profile, mean_op_us(result), result);
    profile.export_files(options.out_dir + "/session_deltas");
  }

  result.info.set("flat_tasks", static_cast<std::int64_t>(sessions->flat.app->num_tasks()))
      .set("recurrent_lowered_tasks",
           static_cast<std::int64_t>(sessions->recurrent_session->app().num_tasks()))
      .set("loop", "closed")
      .set("clients", 1)
      .set("threads", result.threads)
      .set("item", "delta: one mutation or its revert + analyze()");
}

}  // namespace perfbench
