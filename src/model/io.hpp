// Line-oriented text format for problem instances (application + platform),
// so workloads can be stored, diffed, and fed to the example binaries.
//
// Grammar (one directive per line, '#' starts a comment):
//
//   proctype <name> cost <int>
//   resource <name> cost <int>
//   task <name> comp <int> rel <int> deadline <int> proc <name>
//        [res <r1>,<r2>,...] [preemptive]
//   edge <from-task> <to-task> msg <int>
//   node <name> cost <int> proc <proctype> [res <r1>:<units>,...]
//
// Recurrent front door (parsed into ProblemInstance::workload; lowered to
// flat tasks by src/workload/workload.hpp, NOT here):
//
//   transaction <name> period <int> [offset <int>]
//   sporadic <name> mininter <int> [offset <int>] [horizon <int>]
//   ttask <transaction> <name> comp <int> [offset <int>] [deadline <int>]
//         proc <name> [res <r1>,<r2>,...] [preemptive]
//   tedge <transaction> <from-ttask> <to-ttask> [msg <int>]
//
// Declarations may appear in any order except that names must be declared
// before use. The parser enforces only SYNTAX (known directives/keys,
// resolvable names, no duplicates); semantic values -- non-positive periods,
// out-of-range offsets, overlong deadlines -- are stored raw so the
// recurrent lint pass (src/lint/recurrent.hpp) can batch-report them with
// fix-its anchored to the declaration lines (each Transaction/TemplateTask/
// TemplateEdge carries its own 1-based source line; that IS the source map
// for the recurrent half of the grammar).
#pragma once

#include <algorithm>
#include <iosfwd>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/model/application.hpp"
#include "src/model/platform.hpp"
#include "src/model/recurrent.hpp"

namespace rtlb {

/// Where each declaration of a parsed instance came from: 1-based source
/// lines for tasks (by TaskId), edges, node types (by menu index), and
/// catalog entries -- proctype/resource declarations -- by ResourceId.
/// Diagnostics (src/lint) use this to point at the offending line and to
/// anchor machine-applicable fixes; a value of 0 means "unknown" (e.g. a
/// programmatically built model).
struct SourceMap {
  std::vector<int> task_lines;
  /// (from, to, line) per edge, sorted: edge_line() binary-searches it.
  std::vector<std::tuple<TaskId, TaskId, int>> edge_lines;
  std::vector<int> node_lines;
  std::vector<int> resource_lines;

  int task_line(TaskId i) const {
    return i < task_lines.size() ? task_lines[i] : 0;
  }
  int edge_line(TaskId from, TaskId to) const {
    const auto it = std::lower_bound(edge_lines.begin(), edge_lines.end(),
                                     std::tuple(from, to, 0));
    const bool found = it != edge_lines.end() && std::get<0>(*it) == from &&
                       std::get<1>(*it) == to;
    return found ? std::get<2>(*it) : 0;
  }
  int node_line(std::size_t n) const {
    return n < node_lines.size() ? node_lines[n] : 0;
  }
  int resource_line(ResourceId r) const {
    return r < resource_lines.size() ? resource_lines[r] : 0;
  }
};

/// A parsed instance. The catalog is heap-allocated so the Application's
/// internal pointer stays valid when the instance is moved. `workload`
/// holds the recurrent declarations exactly as written; it is EMPTY for
/// flat files, and its transactions are not part of `app` until
/// lower_instance() (src/workload/workload.hpp) appends their instances.
struct ProblemInstance {
  std::unique_ptr<ResourceCatalog> catalog;
  std::unique_ptr<Application> app;
  DedicatedPlatform platform;
  Workload workload;
  SourceMap lines;
};

struct ParseOptions {
  /// Run Application::validate() after parsing (the historical behavior).
  /// The lint CLI turns this off so structurally broken instances can still
  /// be materialized and reported as a batch of diagnostics instead of one
  /// first-error throw.
  bool validate = true;
};

/// Parse an instance; throws ModelError with a line number on bad input.
/// Lines end at '\n' only, as with std::getline (a '\r' stays part of its
/// line, and reads as whitespace). The stream overload reads `in` to its end
/// and parses that text.
ProblemInstance parse_instance(std::istream& in, const ParseOptions& options = {});
ProblemInstance parse_instance_string(const std::string& text, const ParseOptions& options = {});

/// Serialize an instance back to the text format (round-trip safe).
std::string serialize_instance(const Application& app, const DedicatedPlatform& platform);

}  // namespace rtlb
