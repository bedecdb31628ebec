#include "src/lint/diagnostic.hpp"

#include <array>

namespace rtlb {

namespace {

// Keep in code order and in sync with docs/LINT.md. Codes are append-only.
constexpr std::array<DiagInfo, 37> kRegistry{{
    {"RTLB-E000", Severity::kError, "input could not be parsed into a model",
     "fix the reported parse error; see docs/FORMAT.md for the grammar"},
    {"RTLB-E001", Severity::kError, "computation time must be positive",
     "set comp >= 1 (zero-cost tasks can be modeled as comp 1 with slack)"},
    {"RTLB-E002", Severity::kError, "processor-type id is not in the catalog",
     "declare the processor type before the task, or fix the id"},
    {"RTLB-E003", Severity::kError, "phi_i names a plain resource, not a processor type",
     "use `proctype` for the entity tasks execute on; `resource` entries may only appear in R_i"},
    {"RTLB-E004", Severity::kError, "resource id in R_i is not in the catalog",
     "declare the resource before the task, or fix the id"},
    {"RTLB-E005", Severity::kError, "R_i contains a processor type",
     "a task holds exactly one processor via proc; remove the processor type from res"},
    {"RTLB-E006", Severity::kError, "duplicate task name",
     "rename one of the tasks; names are the join key for edges and schedules"},
    {"RTLB-E007", Severity::kError, "precedence graph has a cycle",
     "remove one edge of the reported cycle; applications must be DAGs"},
    {"RTLB-E008", Severity::kError, "deadline precedes release time",
     "ensure rel <= deadline; the task's window is empty"},
    {"RTLB-E009", Severity::kError, "window [rel, D] shorter than computation time",
     "relax the deadline or release so that deadline - rel >= comp"},
    {"RTLB-E101", Severity::kError, "derived window cannot contain the task (L_i - E_i < C_i)",
     "no schedule on ANY system can meet the constraint chain; relax the deadline on the "
     "reported task or shrink an upstream message/computation (see diagnose() for the chain)"},
    {"RTLB-W102", Severity::kWarning, "non-preemptive task with zero derived slack",
     "the start time is fully determined; any extra delay makes the instance infeasible"},
    {"RTLB-W103", Severity::kWarning, "preemptive task with a tight window (L_i - E_i == C_i)",
     "the task must occupy every instant of [E_i, L_i], so preemption buys no flexibility and "
     "any upstream delay is fatal; widen the window if that is not intended"},
    {"RTLB-W201", Severity::kWarning, "resource declared but used by no task",
     "remove the declaration, or add it to some task's res list; its ST_r (and partition) "
     "is empty and LB_r would be 0"},
    {"RTLB-E202", Severity::kError, "no node type can host the task (eta_i is empty)",
     "add a node type carrying the task's processor type plus all of R_i; the covering "
     "constraints of Eq. 7.2 are infeasible as written"},
    {"RTLB-W203", Severity::kWarning, "node type can host no task",
     "remove the menu entry or adjust its processor/resources; it only enlarges the ILP"},
    {"RTLB-E301", Severity::kError, "total demand on the resource overflows the Time range",
     "rescale computation times; bounds on this input would silently wrap"},
    {"RTLB-W302", Severity::kWarning, "task timing magnitude beyond kTimeMax",
     "keep comp/rel/deadline within kTimeMax (INT64_MAX/4); window arithmetic beyond it "
     "may saturate"},
    {"RTLB-W401", Severity::kWarning, "task is isolated (no predecessors or successors)",
     "connect it to the DAG or confirm it is intentionally independent"},
    {"RTLB-N402", Severity::kNote, "zero-size message on an edge",
     "a zero msg makes co-location free; if transfer is never paid, consider merging the tasks"},
    {"RTLB-N403", Severity::kNote, "ST_r forms a single partition block",
     "partitioning gives no scan speedup for this resource; expect the full O(k^2) interval "
     "scan"},
    {"RTLB-E310", Severity::kError,
     "interval analysis proves a constraint chain overflows the Time range",
     "every merge decision yields an EST/LCT value outside int64 along the reported chain; "
     "rescale computation times and messages before any window can be computed"},
    {"RTLB-W311", Severity::kWarning,
     "interval analysis cannot bound the window computation within the safe Time range",
     "some EST/LCT envelope endpoint exceeds kSafeTime (INT64_MAX/2); windows-dependent "
     "checks run only while the computed windows stay within it, and analysis refuses "
     "windows that leave it (RTLB-E310); rescale computation times and messages"},
    {"RTLB-W312", Severity::kWarning,
     "cost accumulation may overflow the Cost range",
     "the Eq. 7.1/7.2 envelope sum of cost_r x demand_r exceeds int64; rescale resource "
     "costs or computation times"},
    {"RTLB-N421", Severity::kNote, "transitively redundant zero-message precedence edge",
     "the ordering is already implied by the remaining edges and the message is free; "
     "delete the edge to shrink the DAG"},
    {"RTLB-N422", Severity::kNote,
     "derived window fully inherited from a dominating constraint chain",
     "neither the release nor the deadline of this task binds; its window is set entirely "
     "by the reported chain -- tune the chain, not the task's own timing"},
    {"RTLB-N423", Severity::kNote, "message latency can never bind any window constraint",
     "on both adjacent windows the latency term is dominated by other constraints, so this "
     "msg value is dead -- any value up to the reported margin changes nothing"},
    {"RTLB-E501", Severity::kError, "transaction period / minimum inter-arrival must be positive",
     "set period (or mininter) >= 1; the fix proposes the smallest period containing every "
     "declared window"},
    {"RTLB-E502", Severity::kError, "release offset lies outside [0, period)",
     "offsets are slot-relative; shift the offset into the period (the fix drops it to 0 "
     "when the task still fits there)"},
    {"RTLB-E503", Severity::kError, "template relative deadline reaches beyond the period",
     "activations would overlap their own successor chain; tighten the deadline to the "
     "period (the fix drops the deadline key, meaning end-of-slot)"},
    {"RTLB-E504", Severity::kError, "template window cannot hold the task",
     "deadline - offset < comp inside one activation slot; widen the deadline, shrink the "
     "offset, or reduce comp"},
    {"RTLB-E505", Severity::kError, "sporadic transaction has no usable horizon",
     "declare `horizon` past the offset, or add a periodic transaction whose hyperperiod "
     "can be borrowed (the fix sets horizon to 4x mininter)"},
    {"RTLB-E506", Severity::kError, "template precedence edges form a cycle",
     "remove one tedge of the reported transaction; templates must be DAGs"},
    {"RTLB-E507", Severity::kError, "malformed recurrent template",
     "structural violation (unknown/duplicate names, bad ids, out-of-range edge, negative "
     "scalar); fix the declaration -- see docs/FORMAT.md for the grammar"},
    {"RTLB-E508", Severity::kError, "hyperperiod of the transaction periods overflows Time",
     "the lcm of the declared periods exceeds kTimeMax; make the periods harmonic or "
     "rescale the time unit"},
    {"RTLB-E509", Severity::kError,
     "the workload lowers to more tasks or edges than the budget allows",
     "the horizon (hyperperiod, or a sporadic horizon) spans too many activations; make the "
     "periods harmonic, shorten the horizon, or rescale the time unit"},
    {"RTLB-W510", Severity::kWarning,
     "steady-state utilization of a processor type exceeds one unit",
     "sum of comp/period over the type's template tasks is > 1; the lowered instance needs "
     "more than one processor of this type no matter the schedule"},
}};

}  // namespace

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "error";
}

std::span<const DiagInfo> all_diag_info() { return kRegistry; }

const DiagInfo* diag_info(std::string_view code) {
  for (const DiagInfo& info : kRegistry) {
    if (code == info.code) return &info;
  }
  return nullptr;
}

std::string format_diagnostic(const Diagnostic& d, const std::string& filename) {
  std::string out;
  if (!filename.empty()) {
    out += filename;
    if (d.line > 0) out += ":" + std::to_string(d.line);
    out += ": ";
  } else if (d.line > 0) {
    out += "line " + std::to_string(d.line) + ": ";
  }
  out += severity_name(d.severity);
  out += ": ";
  if (!d.subject.empty()) {
    out += d.subject;
    out += ": ";
  }
  out += d.message;
  out += " [" + d.code + "]";
  if (!d.hint.empty()) out += "\n  hint: " + d.hint;
  return out;
}

}  // namespace rtlb
