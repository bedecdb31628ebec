#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/analysis.hpp"
#include "src/model/io.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {
namespace {

constexpr const char* kSmall = R"(
# tiny instance
proctype P1 cost 5
resource r1 cost 2
task a comp 3 rel 0 deadline 20 proc P1 res r1
task b comp 2 rel 1 deadline 20 proc P1 preemptive
edge a b msg 4
node N1 cost 9 proc P1 res r1:2
)";

TEST(Io, ParsesTasksEdgesNodes) {
  ProblemInstance inst = parse_instance_string(kSmall);
  EXPECT_EQ(inst.app->num_tasks(), 2u);
  const TaskId a = inst.app->find_task("a");
  const TaskId b = inst.app->find_task("b");
  ASSERT_NE(a, kInvalidTask);
  ASSERT_NE(b, kInvalidTask);
  EXPECT_EQ(inst.app->task(a).comp, 3);
  EXPECT_EQ(inst.app->task(a).resources.size(), 1u);
  EXPECT_FALSE(inst.app->task(a).preemptive);
  EXPECT_TRUE(inst.app->task(b).preemptive);
  EXPECT_EQ(inst.app->task(b).release, 1);
  EXPECT_EQ(inst.app->message(a, b), 4);
  ASSERT_EQ(inst.platform.num_node_types(), 1u);
  EXPECT_EQ(inst.platform.node_type(0).cost, 9);
  EXPECT_EQ(inst.platform.node_type(0).units_of(inst.catalog->find("r1")), 2);
}

TEST(Io, RoundTripsThroughSerialization) {
  ProblemInstance inst = parse_instance_string(kSmall);
  const std::string text = serialize_instance(*inst.app, inst.platform);
  ProblemInstance again = parse_instance_string(text);
  EXPECT_EQ(again.app->num_tasks(), inst.app->num_tasks());
  EXPECT_EQ(serialize_instance(*again.app, again.platform), text);
}

TEST(Io, PaperExampleRoundTrips) {
  ProblemInstance inst = paper_example();
  const std::string text = serialize_instance(*inst.app, inst.platform);
  ProblemInstance again = parse_instance_string(text);
  EXPECT_EQ(again.app->num_tasks(), 15u);
  EXPECT_EQ(serialize_instance(*again.app, again.platform), text);
}

TEST(Io, ShippedInstanceFilesParseAndAnalyze) {
#ifdef RTLB_SOURCE_DIR
  const std::string dir = std::string(RTLB_SOURCE_DIR) + "/examples/instances/";
  for (const char* name : {"paper.rtlb", "radar.rtlb", "avionics.rtlb"}) {
    std::ifstream in(dir + name);
    ASSERT_TRUE(in.good()) << dir + name;
    ProblemInstance inst = parse_instance(in);
    EXPECT_GT(inst.app->num_tasks(), 0u) << name;
    const AnalysisResult res = analyze(*inst.app);
    EXPECT_FALSE(res.infeasible(*inst.app)) << name;
    for (const ResourceBound& b : res.bounds) {
      EXPECT_GE(b.bound, 1) << name;
    }
    if (inst.platform.num_node_types() > 0) {
      AnalysisOptions opts;
      opts.model = SystemModel::Dedicated;
      const AnalysisResult ded = analyze(*inst.app, opts, &inst.platform);
      ASSERT_TRUE(ded.dedicated_cost.has_value()) << name;
      EXPECT_TRUE(ded.dedicated_cost->feasible) << name;
    }
  }
#else
  GTEST_SKIP() << "RTLB_SOURCE_DIR not defined";
#endif
}

// serialize -> parse -> serialize is a byte-identical fixed point on every
// shipped instance (recurrent files after lowering), so edge messages keep
// their adjacency order and values through the model.
TEST(Io, ShippedInstancesSerializeToAFixedPoint) {
#ifdef RTLB_SOURCE_DIR
  const std::filesystem::path root = std::string(RTLB_SOURCE_DIR) + "/examples/instances";
  int checked = 0;
  for (const auto& dir : {root, root / "bad"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".rtlb") continue;
      std::ifstream in(entry.path());
      ProblemInstance inst;
      try {
        inst = parse_instance(in, ParseOptions{.validate = false});
        if (!inst.workload.empty()) lower_instance(inst);
      } catch (const ModelError& e) {
        // Only the bad corpus may lack a model to serialize.
        EXPECT_NE(dir, root) << entry.path() << ": " << e.what();
        continue;
      }
      const std::string text = serialize_instance(*inst.app, inst.platform);
      const ProblemInstance again =
          parse_instance_string(text, ParseOptions{.validate = false});
      EXPECT_EQ(serialize_instance(*again.app, again.platform), text) << entry.path();
      ++checked;
    }
  }
  EXPECT_GE(checked, 15);
#else
  GTEST_SKIP() << "RTLB_SOURCE_DIR not defined";
#endif
}

TEST(Io, ErrorsCarryLineNumbers) {
  try {
    parse_instance_string("proctype P1\ntask t comp 1 deadline 5 proc NOPE\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos);
  }
}

/// What one parse produced: the serialized instance plus its source map and
/// transaction names, or the ModelError text.
std::string parse_outcome(const std::string& text, bool from_stream) {
  try {
    std::istringstream in(text);
    const ProblemInstance inst = from_stream ? parse_instance(in) : parse_instance_string(text);
    std::string out = serialize_instance(*inst.app, inst.platform);
    for (int line : inst.lines.task_lines) out += " t" + std::to_string(line);
    for (const auto& [from, to, line] : inst.lines.edge_lines) {
      out += " e" + std::to_string(from) + ">" + std::to_string(to) + "@" + std::to_string(line);
    }
    for (int line : inst.lines.node_lines) out += " n" + std::to_string(line);
    for (int line : inst.lines.resource_lines) out += " r" + std::to_string(line);
    for (const Transaction& tr : inst.workload.transactions) out += " tr:" + tr.name;
    return out;
  } catch (const ModelError& e) {
    return std::string("error: ") + e.what();
  }
}

/// Both entry points agree on `text`; returns their common outcome.
std::string parse_both(const std::string& text) {
  const std::string from_string = parse_outcome(text, false);
  EXPECT_EQ(parse_outcome(text, true), from_string);
  return from_string;
}

TEST(Io, StreamAndStringParsersAgreeOnLineEndings) {
  const std::string lf =
      "proctype P cost 1\n"
      "task a comp 1 deadline 5 proc P\n"
      "task b comp 1 deadline 5 proc P\n"
      "edge a b msg 2\n";
  const std::string expected = parse_both(lf);
  EXPECT_EQ(expected.rfind("error", 0), std::string::npos) << expected;
  EXPECT_NE(expected.find(" t2 t3 e0>1@4 r1"), std::string::npos) << expected;

  std::string crlf;
  for (char c : lf) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  EXPECT_EQ(parse_both(crlf), expected);                       // CRLF: '\r' trims away
  EXPECT_EQ(parse_both(lf.substr(0, lf.size() - 1)), expected);  // no final newline
  EXPECT_EQ(parse_both("\n\n" + lf + "\n\n"), parse_both("\n\n" + lf));

  // Only '\n' ends a line: a lone '\r' joins two directives into one.
  EXPECT_EQ(parse_both("proctype P cost 1\rtask a comp 1 deadline 5 proc P\n"),
            "error: line 1: unknown key 'task'");
  // An embedded NUL is an ordinary byte of its line (here, of a task name).
  using namespace std::string_literals;
  const std::string nul = parse_both("proctype P cost 1\ntask a\0z comp 1 deadline 5 proc P\n"s);
  EXPECT_NE(nul.find("task a\0z comp 1 rel 0"s), std::string::npos) << nul;
  // A comment-only file, with and without a final newline, is empty.
  EXPECT_EQ(parse_both("# nothing here\n  # indented\n"), "");
  EXPECT_EQ(parse_both("# nothing here"), "");
  EXPECT_EQ(parse_both(""), "");
  // A very long line (a 200000-byte comment tail) stays one line.
  const std::string long_line = "task c comp 1 deadline 5 proc P # " + std::string(200000, 'x');
  EXPECT_EQ(parse_both(lf + long_line + "\n"), "error: line 5: unknown key '#'");
}

TEST(Io, StreamAndStringParsersReportTheSameErrorLine) {
  const std::string head =
      "# header comment\n"
      "proctype P cost 1\r\n"
      "task a comp 1 deadline 5 proc P\n"
      "\n"
      "task b comp 1 deadline 5 proc P\n"
      "edge a b msg 2\n";
  EXPECT_EQ(parse_both(head + "edge a b msg 3\n"), "error: line 7: duplicate edge 0->1");
  EXPECT_EQ(parse_both(head + "edge b b msg 3"), "error: line 7: self-loop on vertex 1");
  EXPECT_EQ(parse_both(head + "# c\r\nedge a zz msg 1\r\n"), "error: line 8: unknown task 'zz'");
}

/// One input per error site of the instance parser, with the exact text it
/// raises. Each input is the four-line header plus one bad line 5 (or the
/// lines noted), so every text also pins the line number.
TEST(Io, EveryParserErrorSiteIsPinned) {
  const std::string head =
      "proctype P cost 1\nresource r cost 1\n"
      "task a comp 1 deadline 5 proc P\ntask b comp 1 deadline 5 proc P\n";
  const std::string tr = "transaction T period 10\nttask T x comp 1 proc P\n";  // lines 5-6
  const std::pair<std::string, std::string> cases[] = {
      {"resource\n", "line 5: resource needs a name"},
      {"proctype\n", "line 5: proctype needs a name"},
      {"resource q price 1\n", "line 5: unknown key 'price'"},
      {"resource q cost\n", "line 5: dangling key 'cost'"},
      {"task\n", "line 5: task needs a name"},
      {"task c comp 1 speed 2 proc P\n", "line 5: unknown key 'speed'"},
      {"task c comp 1 deadline 5\n", "line 5: task 'c' missing proc"},
      {"task c comp 1 deadline 5 proc Q\n", "line 5: unknown resource/processor 'Q'"},
      {"task c comp 1 deadline 5 proc P res r,s\n", "line 5: unknown resource/processor 's'"},
      {"task a comp 1 deadline 5 proc P\n", "line 5: duplicate task 'a'"},
      {"edge a\n", "line 5: edge needs two task names"},
      {"edge z b msg 1\n", "line 5: unknown task 'z'"},
      {"edge a z msg 1\n", "line 5: unknown task 'z'"},
      {"edge a b size 1\n", "line 5: unknown key 'size'"},
      {"edge a b msg 1\nedge a b msg 2\n", "line 6: duplicate edge 0->1"},
      {"edge a a msg 1\n", "line 5: self-loop on vertex 0"},
      {"edge a b msg -1\n", "line 5: negative message size"},
      {"node\n", "line 5: node needs a name"},
      {"node N cost 1 proc P res r:1:2\n", "line 5: bad res spec 'r:1:2'"},
      {"node N cost 1 proc P res s:1\n", "line 5: unknown resource/processor 's'"},
      {"node N cost 1 proc Q\n", "line 5: unknown resource/processor 'Q'"},
      {"node N cost 1 proc P cores 2\n", "line 5: unknown key 'cores'"},
      {"node N cost 1\n", "line 5: node 'N' missing proc"},
      {"transaction\n", "line 5: transaction needs a name"},
      {"sporadic\n", "line 5: sporadic needs a name"},
      {"transaction T period 1\ntransaction T period 2\n", "line 6: duplicate transaction 'T'"},
      {"transaction T period 1 horizon 9\n", "line 5: unknown key 'horizon'"},
      {"transaction T offset 1\n", "line 5: transaction 'T' missing period"},
      {"sporadic S period 5\n", "line 5: unknown key 'period'"},
      {"sporadic S horizon 5\n", "line 5: sporadic 'S' missing mininter"},
      {"ttask T\n", "line 5: ttask needs a transaction and a name"},
      {"ttask U x comp 1 proc P\n", "line 5: unknown transaction 'U'"},
      {tr + "ttask T x comp 1 proc P\n", "line 7: duplicate ttask 'x'"},
      {tr + "ttask T y comp 1 period 2 proc P\n", "line 7: unknown key 'period'"},
      {tr + "ttask T y comp 1 proc Q\n", "line 7: unknown resource/processor 'Q'"},
      {tr + "ttask T y comp 1\n", "line 7: ttask 'y' missing proc"},
      {tr + "tedge T x\n", "line 7: tedge needs a transaction and two ttask names"},
      {tr + "tedge U x x\n", "line 7: unknown transaction 'U'"},
      {tr + "tedge T x y\n", "line 7: unknown ttask 'y' in transaction 'T'"},
      {tr + "tedge T w x\n", "line 7: unknown ttask 'w' in transaction 'T'"},
      {tr + "ttask T y comp 1 proc P\ntedge T x y delay 1\n", "line 8: unknown key 'delay'"},
      {"processor X\n", "line 5: unknown directive 'processor'"},
      // Integers that do not parse: parse_int's text behind the line.
      {"task c comp x deadline 5 proc P\n", "line 5: expected integer for comp, got 'x'"},
      {"node N cost 1 proc P res r:two\n", "line 5: expected integer for units, got 'two'"},
      // The first error in line order wins, whatever its kind.
      {"edge a z msg 1\nresource\n", "line 5: unknown task 'z'"},
      {"bogus\nedge a z msg 1\n", "line 5: unknown directive 'bogus'"},
      {"edge a c msg 1\ntask c comp 1 deadline 5 proc P\n", "line 5: unknown task 'c'"},
      // Within a line, keys resolve before the duplicate-name check.
      {"task c comp 1 deadline 5 proc P\ntask c comp 1 deadline 5 proc Q\n",
       "line 6: unknown resource/processor 'Q'"},
  };
  for (const auto& [tail, want] : cases) {
    EXPECT_EQ(parse_both(head + tail), "error: " + want) << tail;
  }
}

TEST(Io, RejectsUnknownDirective) {
  EXPECT_THROW(parse_instance_string("frobnicate x\n"), ModelError);
}

TEST(Io, RejectsUnknownKey) {
  EXPECT_THROW(parse_instance_string("proctype P1 size 3\n"), ModelError);
}

TEST(Io, RejectsDanglingKey) {
  EXPECT_THROW(parse_instance_string("proctype P1 cost\n"), ModelError);
}

TEST(Io, RejectsDuplicateTask) {
  EXPECT_THROW(parse_instance_string("proctype P\n"
                                     "task t comp 1 deadline 5 proc P\n"
                                     "task t comp 1 deadline 5 proc P\n"),
               ModelError);
}

TEST(Io, RejectsEdgeWithUnknownTask) {
  EXPECT_THROW(parse_instance_string("proctype P\n"
                                     "task t comp 1 deadline 5 proc P\n"
                                     "edge t missing msg 1\n"),
               ModelError);
}

TEST(Io, RejectsTaskWithoutProc) {
  EXPECT_THROW(parse_instance_string("proctype P\ntask t comp 1 deadline 5\n"), ModelError);
}

TEST(Io, ValidatesParsedInstance) {
  // Parsing runs Application::validate, so an infeasible window is rejected.
  EXPECT_THROW(parse_instance_string("proctype P\ntask t comp 9 rel 5 deadline 10 proc P\n"),
               ModelError);
}

// ---------------------------------------------------------------------------
// The recurrent grammar: transaction / sporadic / ttask / tedge.

constexpr const char* kRecurrent = R"(
proctype CPU cost 5
resource cam cost 3

transaction ctrl period 20 offset 2
ttask ctrl sense comp 3 proc CPU res cam
ttask ctrl act comp 2 offset 4 deadline 15 proc CPU preemptive
tedge ctrl sense act msg 4

sporadic alarm mininter 50 offset 1 horizon 100
ttask alarm react comp 2 proc CPU
)";

TEST(Io, ParsesRecurrentTemplatesWithoutLowering) {
  ProblemInstance inst = parse_instance_string(kRecurrent);
  // Parsing only declares; the flat application stays empty until
  // lower_instance() runs.
  EXPECT_EQ(inst.app->num_tasks(), 0u);
  ASSERT_EQ(inst.workload.transactions.size(), 2u);

  const Transaction& ctrl = inst.workload.transactions[0];
  EXPECT_EQ(ctrl.name, "ctrl");
  EXPECT_EQ(ctrl.kind, ReleaseKind::kPeriodic);
  EXPECT_EQ(ctrl.period, 20);
  EXPECT_EQ(ctrl.offset, 2);
  ASSERT_EQ(ctrl.tasks.size(), 2u);
  EXPECT_EQ(ctrl.tasks[0].name, "sense");
  EXPECT_EQ(ctrl.tasks[0].comp, 3);
  EXPECT_EQ(ctrl.tasks[0].proc, inst.catalog->find("CPU"));
  ASSERT_EQ(ctrl.tasks[0].resources.size(), 1u);
  EXPECT_EQ(ctrl.tasks[0].resources[0], inst.catalog->find("cam"));
  EXPECT_FALSE(ctrl.tasks[0].preemptive);
  EXPECT_EQ(ctrl.tasks[1].offset, 4);
  EXPECT_EQ(ctrl.tasks[1].relative_deadline, 15);
  EXPECT_TRUE(ctrl.tasks[1].preemptive);
  ASSERT_EQ(ctrl.edges.size(), 1u);
  EXPECT_EQ(ctrl.edges[0].from, 0u);
  EXPECT_EQ(ctrl.edges[0].to, 1u);
  EXPECT_EQ(ctrl.edges[0].msg, 4);

  const Transaction& alarm = inst.workload.transactions[1];
  EXPECT_EQ(alarm.kind, ReleaseKind::kSporadic);
  EXPECT_EQ(alarm.period, 50);  // minimum inter-arrival
  EXPECT_EQ(alarm.offset, 1);
  EXPECT_EQ(alarm.horizon, 100);

  // Declaration lines feed the recurrent source map (fix-its anchor here).
  EXPECT_EQ(ctrl.line, 5);
  EXPECT_EQ(ctrl.tasks[0].line, 6);
  EXPECT_EQ(ctrl.tasks[1].line, 7);
  EXPECT_EQ(ctrl.edges[0].line, 8);
  EXPECT_EQ(alarm.line, 10);
}

TEST(Io, RecurrentSyntaxErrorsCarryLineNumbers) {
  const char* cases[] = {
      "transaction t\n",                                     // missing period
      "sporadic s period 5\n",                               // wrong rate key
      "transaction t period 5\ntransaction t period 5\n",    // duplicate
      "ttask ghost job comp 1 proc P\n",                     // unknown transaction
      "proctype P\ntransaction t period 5\n"
      "ttask t a comp 1 proc P\nttask t a comp 1 proc P\n",  // duplicate ttask
      "proctype P\ntransaction t period 5\n"
      "ttask t a comp 1 proc P\ntedge t a missing\n",        // unknown ttask
      "transaction t period 5 horizon 9\n",                  // horizon is sporadic-only
  };
  for (const char* text : cases) {
    EXPECT_THROW(parse_instance_string(text), ModelError) << text;
  }
}

TEST(Io, RecurrentSemanticValuesAreStoredRawForLint) {
  // Syntax accepts a zero period; judging it is the lint layer's job
  // (RTLB-E501), so the parser must not reject or clamp it.
  ProblemInstance inst =
      parse_instance_string("proctype P\ntransaction t period 0\nttask t a comp 1 proc P\n");
  ASSERT_EQ(inst.workload.transactions.size(), 1u);
  EXPECT_EQ(inst.workload.transactions[0].period, 0);
}

}  // namespace
}  // namespace rtlb
