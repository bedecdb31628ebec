// check_large: one-off certified checks of large designs -- the
// `rtlb_check --emit` path on 192-task instances.
//
// Closed loop, one client, one thread. Set-up generates the seeded corpus
// and serializes it to .rtlb text; each query parses one text, runs the
// pipeline at LintLevel::kReport with pruning, certificate emission and the
// in-process checker, and serializes the report and the certificate.
#include <algorithm>
#include <chrono>
#include <numeric>

#include "harness.hpp"
#include "replay.hpp"
#include "src/common/random.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/pipeline.hpp"
#include "src/model/io.hpp"
#include "src/workload/taskset_gen.hpp"

namespace perfbench {

using namespace rtlb;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kTasks = 192;
constexpr std::size_t kPerVariant = 8;
constexpr int kExtraSetupReps = 8;
constexpr std::uint64_t kGoldenSeed = 1;

/// The corpus varies the two inputs the bound scan's cost depends on most:
/// window width (laxity) and release/preemption structure.
struct Variant {
  double laxity;
  bool spread;  ///< release_spread 0.5 and preemptive_prob 0.3
};
constexpr Variant kVariants[] = {{1.3, false}, {1.3, true}, {3.0, false}, {3.0, true}};

std::vector<std::string> make_corpus(std::uint64_t seed, std::size_t per_variant) {
  std::vector<std::string> texts;
  for (std::size_t v = 0; v < std::size(kVariants); ++v) {
    for (std::size_t k = 0; k < per_variant; ++k) {
      WorkloadParams p;
      p.seed = split_seed(seed, v, k);
      p.num_tasks = kTasks;
      p.num_resources = 3;
      p.laxity = kVariants[v].laxity;
      p.release_spread = kVariants[v].spread ? 0.5 : 0.0;
      p.preemptive_prob = kVariants[v].spread ? 0.3 : 0.0;
      const ProblemInstance inst = generate_workload(p);
      texts.push_back(serialize_instance(*inst.app, inst.platform));
    }
  }
  return texts;
}

AnalysisOptions query_options(int threads) {
  AnalysisOptions o;
  o.model = SystemModel::Dedicated;
  o.lint_level = LintLevel::kReport;
  o.lower_bound.enable_pruning = true;
  o.lower_bound.num_threads = threads;
  o.emit_certificates = true;
  o.check_certificates = true;
  return o;
}

ProblemInstance parse(const std::string& text) {
  return parse_instance_string(text, ParseOptions{.validate = false});
}

ReplayOutput query(const std::string& text, const AnalysisOptions& options) {
  const ProblemInstance inst = parse(text);
  return run_and_serialize(*inst.app, options, &inst.platform);
}

/// What a query must reproduce: the digests of its report and certificate.
struct Reference {
  std::string report;
  std::string certificate;

  bool matches(const ReplayOutput& out) const {
    return digest(out.report) == report && digest(out.certificate) == certificate;
  }
};

/// Untimed oracle pass: each instance's reference output, whose bounds must
/// equal the unpartitioned engine's (Theorem 5 makes them identical).
std::vector<Reference> reference_outputs(const std::vector<std::string>& corpus,
                                         const AnalysisOptions& options, RunResult& result) {
  std::vector<Reference> refs;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const ReplayOutput out = query(corpus[i], options);
    refs.push_back({digest(out.report), digest(out.certificate)});
    const ProblemInstance inst = parse(corpus[i]);
    LowerBoundOptions flat;
    flat.use_partitioning = false;
    flat.num_threads = options.lower_bound.num_threads;
    const std::vector<ResourceBound> oracle =
        all_resource_bounds(*inst.app, out.result.windows, flat);
    const std::vector<ResourceBound>& bounds = out.result.bounds;
    bool equal = oracle.size() == bounds.size();
    for (std::size_t r = 0; equal && r < bounds.size(); ++r) {
      equal = oracle[r].resource == bounds[r].resource && oracle[r].bound == bounds[r].bound;
    }
    if (!equal) result.problem("instance " + std::to_string(i) + ": LB_r differs from the "
                               "use_partitioning=false result");
  }
  return refs;
}

/// Closed loop over the corpus in seeded shuffled rounds.
template <typename Op>
void closed_loop(std::size_t n, std::uint64_t seed, double seconds, Op op) {
  Rng rng(seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Budget budget(seconds);
  while (budget.left()) {
    rng.shuffle(order);
    for (std::size_t i : order) {
      if (!budget.left()) break;
      op(i);
    }
  }
}

void timed_queries(const std::vector<std::string>& corpus, const std::vector<Reference>& refs,
                   const AnalysisOptions& options, std::uint64_t seed, double seconds,
                   SetupSampler& sampler, RunResult& result) {
  CpuRotor rotor;
  closed_loop(corpus.size(), seed, seconds, [&](std::size_t i) {
    rotor.poll();
    sampler.poll();
    try {
      const Clock::time_point start = Clock::now();
      const ReplayOutput out = query(corpus[i], options);
      const double ms = seconds_since(start) * 1000.0;
      const bool ok = refs[i].matches(out);
      if (!ok) result.problem("query output differs from the reference, instance " +
                              std::to_string(i));
      result.op(ms, 1, ok, i);
    } catch (const std::exception& e) {
      result.fail(e.what());
    }
  });
}

void traced_queries(const std::vector<std::string>& corpus, const std::vector<Reference>& refs,
                    const AnalysisOptions& options,
                    std::uint64_t seed, double seconds, LayerProfile& profile,
                    RunResult& result) {
  closed_loop(corpus.size(), seed, seconds, [&](std::size_t i) {
    profile.begin_op();
    try {
      ReplayOutput out;
      {
        ProblemInstance inst;
        {
          ScopedSpan span(profile.trace(), "model.parse");
          inst = parse(corpus[i]);
        }
        out = replay_pipeline(*inst.app, options, &inst.platform, profile.trace());
      }
      profile.end_op();
      if (!refs[i].matches(out)) {
        result.problem("traced replay differs from run_pipeline, instance " +
                       std::to_string(i) + ": the trace is void");
      }
    } catch (const std::exception& e) {
      profile.end_op();
      result.fail(e.what());
    }
  });
}

/// Bound stage at 1 thread over the bound stage at `threads`, summed over
/// the corpus (best of three each).
double bounds_scaling(const std::vector<std::string>& corpus, const AnalysisOptions& options,
                      int threads) {
  double serial_s = 0, parallel_s = 0;
  for (const std::string& text : corpus) {
    const ProblemInstance inst = parse(text);
    const TaskWindows windows = run_pipeline(*inst.app, options, &inst.platform).windows;
    auto best_of_three = [&](int threads) {
      LowerBoundOptions lb = options.lower_bound;
      lb.num_threads = threads;
      double best = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point start = Clock::now();
        const std::vector<ResourceBound> bounds =
            all_resource_bounds(*inst.app, windows, lb);
        best = std::min(best, seconds_since(start));
      }
      return best;
    };
    serial_s += best_of_three(1);
    parallel_s += best_of_three(threads);
  }
  return parallel_s > 0 ? serial_s / parallel_s : 0;
}

}  // namespace

void run_check_large(const Options& options, RunResult& result) {
  // The report records the engine's thread count; it is the same on every
  // machine, so the golden digests hold on any CPU count.
  const AnalysisOptions query_opts = query_options(options.threads);
  result.threads = std::max(
      static_cast<int>(ThreadPool::resolve_threads(query_opts.lower_bound.num_threads)),
      options.trace ? options.parallel_threads : 0);

  {
    Golden golden(options, result);
    Digest reports, certificates;
    for (const std::string& text : make_corpus(kGoldenSeed, 1)) {
      const ReplayOutput out = query(text, query_opts);
      reports.add(out.report);
      certificates.add(out.certificate);
    }
    golden.check("report", reports);
    golden.check("certificate", certificates);
  }

  // Set-up: generate and serialize the corpus, then one warm-up query.
  std::vector<std::string> corpus;
  auto set_up = [&] {
    corpus = {};
    const Clock::time_point start = Clock::now();
    corpus = make_corpus(options.seed, kPerVariant);
    const ReplayOutput warm = query(corpus.front(), query_opts);
    return seconds_since(start);
  };
  result.setup_s.push_back(set_up());
  const std::vector<Reference> refs = reference_outputs(corpus, query_opts, result);

  const std::uint64_t order_seed = split_seed(options.seed, 0x9e37);
  const double timed_s = options.trace ? options.seconds / 2 : options.seconds;
  SetupSampler sampler(result, timed_s, kExtraSetupReps, set_up);
  timed_queries(corpus, refs, query_opts, order_seed, timed_s, sampler, result);
  if (options.trace) {
    LayerProfile profile;
    traced_queries(corpus, refs, query_opts, order_seed, options.seconds / 2, profile, result);
    result.layers["core.bounds_scaling_ratio"] =
        bounds_scaling(corpus, query_opts, options.parallel_threads);
    record_profile(profile, mean_op_us(result), result);
    profile.export_files(options.out_dir + "/check_large");
  }

  result.info.set("instances", static_cast<std::int64_t>(corpus.size()))
      .set("tasks_per_instance", static_cast<std::int64_t>(kTasks))
      .set("loop", "closed")
      .set("clients", 1)
      .set("threads", options.threads)
      .set("item", "query: parse + run_pipeline + report/certificate JSON");
}

}  // namespace perfbench
