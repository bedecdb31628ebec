#include "src/core/session.hpp"

#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "src/core/pipeline.hpp"
#include "src/model/io.hpp"

namespace rtlb {

namespace {

/// Compile-time default (RTLB_SESSION_VERIFY, the ctest cross-check build)
/// or the environment variable of the same name.
bool default_verify() {
#ifdef RTLB_SESSION_VERIFY
  return true;
#else
  const char* env = std::getenv("RTLB_SESSION_VERIFY");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
#endif
}

}  // namespace

AnalysisSession::AnalysisSession(Application app, AnalysisOptions options,
                                 const DedicatedPlatform* platform)
    : app_(std::move(app)),
      options_(options),
      platform_(platform ? std::optional<DedicatedPlatform>(*platform) : std::nullopt),
      verify_(default_verify()) {}

namespace {

/// The no-op detector's currency: the lowered application's bytes (an empty
/// platform keeps the comparison app-only -- platform deltas have their own
/// mutator).
std::string lowered_fingerprint(const Application& app) {
  return serialize_instance(app, DedicatedPlatform{});
}

}  // namespace

AnalysisSession::AnalysisSession(const ResourceCatalog& catalog, Workload workload,
                                 AnalysisOptions options, const DedicatedPlatform* platform)
    : catalog_(std::make_unique<ResourceCatalog>(catalog)),
      workload_(std::move(workload)),
      app_(gate_and_lower(*catalog_, *workload_, platform, options.lint_level)),
      options_(options),
      platform_(platform ? std::optional<DedicatedPlatform>(*platform) : std::nullopt),
      verify_(default_verify()) {
  lowered_bytes_ = lowered_fingerprint(app_);
}

Transaction& AnalysisSession::require_transaction(const std::string& name) {
  if (!workload_) {
    throw ModelError("template delta on a session over a flat Application");
  }
  for (Transaction& tr : workload_->transactions) {
    if (tr.name == name) return tr;
  }
  throw ModelError("unknown transaction '" + name + "'");
}

void AnalysisSession::set_template_field(Time& field, Time value) {
  if (field == value) return;
  const Time previous = std::exchange(field, value);
  try {
    Application app = gate_and_lower(*catalog_, *workload_, platform(), options_.lint_level);
    std::string bytes = lowered_fingerprint(app);
    if (bytes == lowered_bytes_) return;  // lowers identically: keep everything
    lowered_bytes_ = std::move(bytes);
    replace_application(std::move(app));
  } catch (...) {
    field = previous;  // keep the session consistent on refusal
    throw;
  }
}

void AnalysisSession::set_transaction_period(const std::string& transaction, Time period) {
  set_template_field(require_transaction(transaction).period, period);
}

void AnalysisSession::set_transaction_offset(const std::string& transaction, Time offset) {
  set_template_field(require_transaction(transaction).offset, offset);
}

void AnalysisSession::set_template_comp(const std::string& transaction, const std::string& task,
                                        Time comp) {
  for (TemplateTask& t : require_transaction(transaction).tasks) {
    if (t.name == task) return set_template_field(t.comp, comp);
  }
  throw ModelError("unknown template task '" + task + "' in transaction '" + transaction + "'");
}

void AnalysisSession::require_valid_task(TaskId i) const {
  if (i >= app_.num_tasks()) {
    throw ModelError("AnalysisSession: task id out of range");
  }
}

void AnalysisSession::set_comp(TaskId i, Time comp) {
  require_valid_task(i);
  if (app_.task(i).comp == comp) return;
  app_.task(i).comp = comp;
  windows_dirty_ = true;  // C_i feeds the EST/LCT recurrences...
  demand_dirty_ = true;   // ...and Theta directly.
}

void AnalysisSession::set_release(TaskId i, Time release) {
  require_valid_task(i);
  if (app_.task(i).release == release) return;
  app_.task(i).release = release;
  windows_dirty_ = true;
}

void AnalysisSession::set_deadline(TaskId i, Time deadline) {
  require_valid_task(i);
  if (app_.task(i).deadline == deadline) return;
  app_.task(i).deadline = deadline;
  windows_dirty_ = true;
}

void AnalysisSession::set_preemptive(TaskId i, bool preemptive) {
  require_valid_task(i);
  if (app_.task(i).preemptive == preemptive) return;
  app_.task(i).preemptive = preemptive;
  demand_dirty_ = true;  // Theorem 3 vs 4 overlap; the windows never read it.
}

void AnalysisSession::set_message(TaskId from, TaskId to, Time msg_size) {
  require_valid_task(from);
  require_valid_task(to);
  bool exists = false;
  for (TaskId s : app_.successors(from)) exists |= s == to;
  if (!exists) {
    throw ModelError("set_message: no edge " + std::to_string(from) + " -> " +
                     std::to_string(to));
  }
  if (app_.message(from, to) == msg_size) return;
  app_.set_message(from, to, msg_size);
  windows_dirty_ = true;
}

void AnalysisSession::set_platform(const DedicatedPlatform* platform) {
  platform_ = platform ? std::optional<DedicatedPlatform>(*platform) : std::nullopt;
  platform_dirty_ = true;
  // Only the dedicated merge oracle consults the menu; under the shared
  // model a platform swap re-solves the ILP against unchanged bounds.
  if (options_.model == SystemModel::Dedicated) windows_dirty_ = true;
}

void AnalysisSession::replace_application(Application app) {
  app_ = std::move(app);
  windows_dirty_ = true;
  demand_dirty_ = true;
  structure_dirty_ = true;
}

const AnalysisResult& AnalysisSession::analyze() {
  // A hit needs a completed query, so a dedicated session without a
  // platform always reaches run_pipeline(), which refuses it.
  if (have_result_ && !windows_dirty_ && !demand_dirty_ && !structure_dirty_ &&
      !platform_dirty_) {
    ++stats_.queries;
    ++stats_.query_hits;
    // The tripwire covers served-from-cache queries too: re-judge the cached
    // certificate against the live model so a stale or corrupted cache entry
    // cannot be handed out as verified.
    if (options_.check_certificates && result_.certificate) {
      CheckReport report = check_certificate(*result_.certificate, app_, platform());
      if (!report.valid) throw CertificateCheckError(std::move(report));
      result_.certificate_check = std::move(report);
    }
    return result_;
  }

  // Everything else -- the pre-flight gate (which runs on every non-hit
  // query so refusals and their exception types match a cold call exactly),
  // stage sequencing, the reuse rules, certificate emit/check -- is the
  // shared pipeline; the session only hands it the previous result and its
  // dirty flags. run_pipeline() builds a fresh result and throws before
  // returning it on any refusal, so `result_` and the counters stay
  // untouched until the query completes and a refused query leaves the
  // session serving its last completed state.
  PipelineReuse reuse{.prev = have_result_ ? &result_ : nullptr,
                      .structure_changed = structure_dirty_,
                      .demand_changed = demand_dirty_,
                      .platform_changed = platform_dirty_,
                      .blocks = &block_cache_};
  AnalysisResult next = run_pipeline(app_, options_, platform(), reuse);

  if (verify_) {
    // The cross-check must not re-trace: a traced cold run would double
    // every span in the caller's Trace.
    AnalysisOptions cold_options = options_;
    cold_options.trace = nullptr;
    RTLB_CHECK(next == rtlb::analyze(app_, cold_options, platform()),
               "AnalysisSession result diverged from cold analyze()");
    ++stats_.verified;
  }

  // Every non-hit query lints fresh and computes (or takes over) its
  // windows; the later stages count a hit when they were replayed.
  ++stats_.gate_runs;
  ++stats_.window_misses;
  ++(reuse.replayed_partitions ? stats_.partition_hits : stats_.partition_misses);
  ++(reuse.replayed_bounds ? stats_.bound_hits : stats_.bound_misses);
  if (options_.joint_bounds) {
    ++(reuse.replayed_joint ? stats_.joint_hits : stats_.joint_misses);
  }
  if (platform_) {
    ++(reuse.replayed_dedicated_cost ? stats_.cost_hits : stats_.cost_misses);
  }

  result_ = std::move(next);
  have_result_ = true;
  windows_dirty_ = demand_dirty_ = structure_dirty_ = platform_dirty_ = false;
  ++stats_.queries;
  return result_;
}

SessionStats AnalysisSession::stats() const {
  SessionStats s = stats_;
  s.block_hits = block_cache_.hits();
  s.block_misses = block_cache_.misses();
  return s;
}

}  // namespace rtlb
