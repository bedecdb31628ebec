#include "src/model/io.hpp"

#include <charconv>
#include <functional>
#include <istream>
#include <iterator>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "src/common/strings.hpp"

namespace rtlb {

namespace {

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw ModelError("line " + std::to_string(line_no) + ": " + msg);
}

ResourceId require_resource(const ResourceCatalog& cat, std::string_view name, int line_no) {
  ResourceId r = cat.find(name);
  if (r == kInvalidResource) {
    fail(line_no, "unknown resource/processor '" + std::string(name) + "'");
  }
  return r;
}

/// An integer value; a malformed one fails with its line like every other
/// parse error (parse_int's text behind the "line N: " prefix).
std::int64_t require_int(std::string_view value, std::string_view key, int line_no) {
  try {
    return parse_int(value, key);
  } catch (const ModelError& e) {
    fail(line_no, e.what());
  }
}

Transaction* find_transaction(Workload& workload, std::string_view name) {
  for (Transaction& tr : workload.transactions) {
    if (tr.name == name) return &tr;
  }
  return nullptr;
}

std::size_t find_template_task(const Transaction& tr, std::string_view name, int line_no) {
  for (std::size_t i = 0; i < tr.tasks.size(); ++i) {
    if (tr.tasks[i].name == name) return i;
  }
  fail(line_no, "unknown ttask '" + std::string(name) + "' in transaction '" + tr.name + "'");
}

/// Calls `f(line_no, line)` for each trimmed, non-blank, non-comment line.
template <typename F>
void for_each_line(std::string_view text, F f) {
  int line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = trim(text.substr(pos, end - pos));
    pos = end + 1;
    ++line_no;
    if (!line.empty() && line.front() != '#') f(line_no, line);
  }
}

/// What the main pass will build, counted by a pre-pass that never throws
/// (a line it cannot read is skipped; the main pass reports it): each task
/// name's id, in declaration order (the first declaration of a name wins),
/// each edge line's endpoints as resolved from the tasks declared above it,
/// and each task's successor and predecessor counts. The main pass reserves
/// from these and takes its edge endpoints from here. Until a parse fails,
/// the main pass has added exactly the tasks the pre-pass numbered, in the
/// same order, so the two resolve every name alike.
struct Census {
  /// Keys are views into the parsed text.
  std::unordered_map<std::string_view, TaskId> task_ids;
  /// (from, to) per "edge" line with two names, in line order;
  /// kInvalidTask where a name was not declared above the line.
  std::vector<std::pair<TaskId, TaskId>> edge_ends;
  std::vector<std::uint32_t> succ_count;
  std::vector<std::uint32_t> pred_count;

  explicit Census(std::string_view text) {
    for_each_line(text, [&](int, std::string_view line) {
      const std::string_view kind = next_token(line);
      const std::string_view first = next_token(line);
      if (kind == "task" && !first.empty()) {
        if (!task_ids.try_emplace(first, static_cast<TaskId>(succ_count.size())).second) return;
        succ_count.push_back(0);
        pred_count.push_back(0);
        return;
      }
      const std::string_view second = next_token(line);
      if (kind == "edge" && !second.empty()) {
        const TaskId from = task_id(first);
        const TaskId to = task_id(second);
        edge_ends.emplace_back(from, to);
        if (from == kInvalidTask || to == kInvalidTask) return;
        ++succ_count[from];
        ++pred_count[to];
      }
    });
  }

  /// The id of task `name`; kInvalidTask when absent.
  TaskId task_id(std::string_view name) const {
    const auto it = task_ids.find(name);
    return it == task_ids.end() ? kInvalidTask : it->second;
  }
};

/// Append each part to `out`: integers in decimal, anything else as text.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  const auto one = [&out](const auto& part) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(part)>>) {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

}  // namespace

ProblemInstance parse_instance(std::istream& in, const ParseOptions& options) {
  return parse_instance_string(std::string(std::istreambuf_iterator<char>(in), {}), options);
}

ProblemInstance parse_instance_string(const std::string& text, const ParseOptions& options) {
  ProblemInstance inst;
  inst.catalog = std::make_unique<ResourceCatalog>();
  inst.app = std::make_unique<Application>(*inst.catalog);

  const Census census(text);
  inst.app->reserve(census.succ_count.size());
  inst.lines.task_lines.reserve(census.succ_count.size());
  inst.lines.edge_lines.reserve(census.edge_ends.size());
  std::size_t edges_seen = 0;

  // Token and key/value views into the current line, reused across lines.
  using KeyVal = std::pair<std::string_view, std::string_view>;
  std::vector<std::string_view> tok;
  std::vector<KeyVal> kv;

  for_each_line(text, [&](int line_no, std::string_view line) {
    split_ws_views(line, tok);
    const std::string_view kind = tok[0];

    // Read "key value" pairs following the fixed positional prefix.
    auto keyval = [&](std::size_t start) -> const std::vector<KeyVal>& {
      kv.clear();
      for (std::size_t i = start; i < tok.size();) {
        if (tok[i] == "preemptive") {
          kv.emplace_back("preemptive", "1");
          ++i;
        } else {
          if (i + 1 >= tok.size()) fail(line_no, "dangling key '" + std::string(tok[i]) + "'");
          kv.emplace_back(tok[i], tok[i + 1]);
          i += 2;
        }
      }
      return kv;
    };

    if (kind == "proctype" || kind == "resource") {
      if (tok.size() < 2) fail(line_no, std::string(kind) + " needs a name");
      Cost cost = 0;
      for (const auto& [k, v] : keyval(2)) {
        if (k == "cost") cost = require_int(v, "cost", line_no);
        else fail(line_no, "unknown key '" + std::string(k) + "'");
      }
      if (kind == "proctype") inst.catalog->add_processor_type(std::string(tok[1]), cost);
      else inst.catalog->add_resource(std::string(tok[1]), cost);
      inst.lines.resource_lines.push_back(line_no);  // catalog ids are dense
    } else if (kind == "task") {
      if (tok.size() < 2) fail(line_no, "task needs a name");
      Task t;
      t.name = tok[1];
      bool have_proc = false;
      for (const auto& [k, v] : keyval(2)) {
        if (k == "comp") t.comp = require_int(v, "comp", line_no);
        else if (k == "rel") t.release = require_int(v, "rel", line_no);
        else if (k == "deadline") t.deadline = require_int(v, "deadline", line_no);
        else if (k == "proc") { t.proc = require_resource(*inst.catalog, v, line_no); have_proc = true; }
        else if (k == "res") {
          for_each_field(v, ',', [&](std::string_view r) {
            t.resources.push_back(require_resource(*inst.catalog, r, line_no));
          });
        } else if (k == "preemptive") t.preemptive = true;
        else fail(line_no, "unknown key '" + std::string(k) + "'");
      }
      if (!have_proc) fail(line_no, "task '" + t.name + "' missing proc");
      // The census numbered this line's task num_tasks() unless the name
      // was declared before.
      if (census.task_id(tok[1]) != inst.app->num_tasks()) {
        fail(line_no, "duplicate task '" + t.name + "'");
      }
      const TaskId id = inst.app->add_task(std::move(t));
      inst.app->reserve_edges(id, census.succ_count[id], census.pred_count[id]);
      inst.lines.task_lines.push_back(line_no);
    } else if (kind == "edge") {
      if (tok.size() < 3) fail(line_no, "edge needs two task names");
      const auto [from, to] = census.edge_ends[edges_seen++];
      if (from == kInvalidTask) fail(line_no, "unknown task '" + std::string(tok[1]) + "'");
      if (to == kInvalidTask) fail(line_no, "unknown task '" + std::string(tok[2]) + "'");
      Time msg = 0;
      for (const auto& [k, v] : keyval(3)) {
        if (k == "msg") msg = require_int(v, "msg", line_no);
        else fail(line_no, "unknown key '" + std::string(k) + "'");
      }
      try {
        inst.app->add_edge(from, to, msg);
      } catch (const ModelError& e) {  // duplicate edge, self-loop, negative msg
        fail(line_no, e.what());
      }
      inst.lines.edge_lines.emplace_back(from, to, line_no);
    } else if (kind == "node") {
      if (tok.size() < 2) fail(line_no, "node needs a name");
      NodeType n;
      n.name = tok[1];
      for (const auto& [k, v] : keyval(2)) {
        if (k == "cost") n.cost = require_int(v, "cost", line_no);
        else if (k == "proc") n.proc = require_resource(*inst.catalog, v, line_no);
        else if (k == "res") {
          for_each_field(v, ',', [&](std::string_view spec) {
            const std::size_t colon = spec.find(':');
            if (colon != spec.npos && spec.find(':', colon + 1) != spec.npos) {
              fail(line_no, "bad res spec '" + std::string(spec) + "'");
            }
            const ResourceId r = require_resource(*inst.catalog, spec.substr(0, colon), line_no);
            const int units =
                colon == spec.npos
                    ? 1
                    : static_cast<int>(require_int(spec.substr(colon + 1), "units", line_no));
            n.resources.emplace_back(r, units);
          });
        } else fail(line_no, "unknown key '" + std::string(k) + "'");
      }
      if (n.proc == kInvalidResource) fail(line_no, "node '" + n.name + "' missing proc");
      inst.platform.add_node_type(std::move(n));
      inst.lines.node_lines.push_back(line_no);
    } else if (kind == "transaction" || kind == "sporadic") {
      if (tok.size() < 2) fail(line_no, std::string(kind) + " needs a name");
      const bool sporadic = kind == "sporadic";
      Transaction tr;
      tr.name = tok[1];
      tr.kind = sporadic ? ReleaseKind::kSporadic : ReleaseKind::kPeriodic;
      tr.line = line_no;
      if (find_transaction(inst.workload, tr.name)) {
        fail(line_no, "duplicate transaction '" + tr.name + "'");
      }
      const std::string rate_key = sporadic ? "mininter" : "period";
      bool have_rate = false;
      for (const auto& [k, v] : keyval(2)) {
        if (k == rate_key) { tr.period = require_int(v, rate_key, line_no); have_rate = true; }
        else if (k == "offset") tr.offset = require_int(v, "offset", line_no);
        else if (sporadic && k == "horizon") tr.horizon = require_int(v, "horizon", line_no);
        else fail(line_no, "unknown key '" + std::string(k) + "'");
      }
      if (!have_rate) fail(line_no, std::string(kind) + " '" + tr.name + "' missing " + rate_key);
      inst.workload.transactions.push_back(std::move(tr));
    } else if (kind == "ttask") {
      if (tok.size() < 3) fail(line_no, "ttask needs a transaction and a name");
      Transaction* tr = find_transaction(inst.workload, tok[1]);
      if (!tr) fail(line_no, "unknown transaction '" + std::string(tok[1]) + "'");
      TemplateTask t;
      t.name = tok[2];
      t.line = line_no;
      for (const TemplateTask& prev : tr->tasks) {
        if (prev.name == t.name) fail(line_no, "duplicate ttask '" + t.name + "'");
      }
      bool have_proc = false;
      for (const auto& [k, v] : keyval(3)) {
        if (k == "comp") t.comp = require_int(v, "comp", line_no);
        else if (k == "offset") t.offset = require_int(v, "offset", line_no);
        else if (k == "deadline") t.relative_deadline = require_int(v, "deadline", line_no);
        else if (k == "proc") { t.proc = require_resource(*inst.catalog, v, line_no); have_proc = true; }
        else if (k == "res") {
          for_each_field(v, ',', [&](std::string_view r) {
            t.resources.push_back(require_resource(*inst.catalog, r, line_no));
          });
        } else if (k == "preemptive") t.preemptive = true;
        else fail(line_no, "unknown key '" + std::string(k) + "'");
      }
      if (!have_proc) fail(line_no, "ttask '" + t.name + "' missing proc");
      tr->tasks.push_back(std::move(t));
    } else if (kind == "tedge") {
      if (tok.size() < 4) fail(line_no, "tedge needs a transaction and two ttask names");
      Transaction* tr = find_transaction(inst.workload, tok[1]);
      if (!tr) fail(line_no, "unknown transaction '" + std::string(tok[1]) + "'");
      TemplateEdge e;
      e.from = find_template_task(*tr, tok[2], line_no);
      e.to = find_template_task(*tr, tok[3], line_no);
      e.line = line_no;
      for (const auto& [k, v] : keyval(4)) {
        if (k == "msg") e.msg = require_int(v, "msg", line_no);
        else fail(line_no, "unknown key '" + std::string(k) + "'");
      }
      tr->edges.push_back(e);
    } else {
      fail(line_no, "unknown directive '" + std::string(kind) + "'");
    }
  });
  // serialize_instance writes edges in adjacency order, which is sorted
  // whenever they were added in ascending order.
  if (!std::is_sorted(inst.lines.edge_lines.begin(), inst.lines.edge_lines.end())) {
    std::sort(inst.lines.edge_lines.begin(), inst.lines.edge_lines.end());
  }
  if (options.validate) inst.app->validate();
  return inst;
}

std::string serialize_instance(const Application& app, const DedicatedPlatform& platform) {
  const ResourceCatalog& cat = app.catalog();
  std::string out;
  for (ResourceId r = 0; r < cat.size(); ++r) {
    append(out, cat.is_processor(r) ? "proctype " : "resource ", cat.name(r), " cost ",
           cat.cost(r), "\n");
  }
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    const Task& t = app.task(i);
    append(out, "task ", t.name, " comp ", t.comp, " rel ", t.release, " deadline ", t.deadline,
           " proc ", cat.name(t.proc));
    for (std::size_t k = 0; k < t.resources.size(); ++k) {
      append(out, k == 0 ? " res " : ",", cat.name(t.resources[k]));
    }
    if (t.preemptive) out += " preemptive";
    out += '\n';
  }
  for (TaskId i = 0; i < app.num_tasks(); ++i) {
    for (std::size_t k = 0; k < app.successors(i).size(); ++k) {
      append(out, "edge ", app.task(i).name, " ", app.task(app.successors(i)[k]).name, " msg ",
             app.successor_messages(i)[k], "\n");
    }
  }
  for (const NodeType& n : platform.node_types()) {
    append(out, "node ", n.name, " cost ", n.cost, " proc ", cat.name(n.proc));
    for (std::size_t k = 0; k < n.resources.size(); ++k) {
      append(out, k == 0 ? " res " : ",", cat.name(n.resources[k].first), ":",
             n.resources[k].second);
    }
    out += '\n';
  }
  // Callers keep corpora of these; drop the growth slack, as
  // ostringstream::str() did (EXPERIMENTS.md, check_large peak_rss_mib).
  out.shrink_to_fit();
  return out;
}

}  // namespace rtlb
