#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/common/json.hpp"
#include "src/core/report.hpp"
#include "src/fleet/runner.hpp"
#include "src/model/io.hpp"
#include "src/obs/trace.hpp"
#include "src/verify/certificate.hpp"
#include "src/workload/paper_example.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("line\nbreak").dump(), "\"line\\nbreak\"");
  EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
  EXPECT_EQ(Json(std::string("ctrl\x01")).dump(), "\"ctrl\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json obj = Json::object();
  obj.set("z", 1).set("a", 2);
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2}");
}

TEST(Json, ArraysAndNesting) {
  Json arr = Json::array();
  arr.push(1).push("two");
  Json obj = Json::object();
  obj.set("list", std::move(arr)).set("empty", Json::array());
  EXPECT_EQ(obj.dump(), "{\"list\":[1,\"two\"],\"empty\":[]}");
}

TEST(Json, PrettyPrinting) {
  Json obj = Json::object();
  obj.set("k", 1);
  EXPECT_EQ(obj.dump(2), "{\n  \"k\": 1\n}");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, TypeMisuseThrows) {
  Json scalar(1);
  EXPECT_THROW(scalar.set("k", 2), std::logic_error);
  EXPECT_THROW(scalar.push(2), std::logic_error);
}

TEST(Report, PaperExampleReportCarriesTheHeadlineNumbers) {
  ProblemInstance inst = paper_example();
  AnalysisOptions options;
  options.model = SystemModel::Dedicated;
  const AnalysisResult result = analyze(*inst.app, options, &inst.platform);
  const std::string json = report_string(*inst.app, result);

  // Structure and the step-3/4 headline values.
  EXPECT_NE(json.find("\"tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"partitions\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"resource\": \"P1\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"bound\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dedicated_cost\""), std::string::npos);
  EXPECT_NE(json.find("\"total\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"infeasible\": false"), std::string::npos);
  // Task windows present (T9's E=16/L=19).
  EXPECT_NE(json.find("\"name\": \"T9\""), std::string::npos);
  EXPECT_NE(json.find("\"est\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"lct\": 19"), std::string::npos);
}

TEST(Report, CompactDumpIsSingleLine) {
  ProblemInstance inst = paper_example();
  const AnalysisResult result = analyze(*inst.app);
  const std::string compact = report_json(*inst.app, result).dump(0);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(JsonWriter, WritesTheDumpBytesCompactAndPretty) {
  JsonWriter compact;
  JsonWriter pretty(2);
  for (JsonWriter* w : {&compact, &pretty}) {
    w->begin_object().field("s", "a\"b\n").field("n", std::int64_t{-3}).field("d", 0.5);
    w->key("empty").begin_array().end_array().key("list").begin_array();
    w->value(true).value(nullptr).begin_object().end_object().end_array().end_object();
  }
  EXPECT_EQ(compact.take(), R"({"s":"a\"b\n","n":-3,"d":0.5,"empty":[],"list":[true,null,{}]})");
  EXPECT_EQ(pretty.take(),
            "{\n  \"s\": \"a\\\"b\\n\",\n  \"n\": -3,\n  \"d\": 0.5,\n  \"empty\": [],\n"
            "  \"list\": [\n    true,\n    null,\n    {}\n  ]\n}");
}

/// A producer's writer output must be exactly what the document model
/// dumps for the same document, compact and pretty.
void expect_dom_bytes(const JsonRender& doc, const std::string& what) {
  const std::string compact = doc.dump();
  const Json dom = Json::parse(compact);
  EXPECT_EQ(compact, dom.dump()) << what;
  EXPECT_EQ(doc.dump(2), dom.dump(2)) << what;
}

TEST(JsonWriter, EveryProducerMatchesTheDomOnTheShippedInstances) {
#ifdef RTLB_SOURCE_DIR
  const std::filesystem::path dir = std::string(RTLB_SOURCE_DIR) + "/examples/instances";
  int rendered = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".rtlb") continue;
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path());
    ProblemInstance inst = parse_instance(in);
    if (!inst.workload.empty()) lower_instance(inst);
    AnalysisOptions options;
    const bool dedicated = inst.platform.num_node_types() > 0;
    options.model = dedicated ? SystemModel::Dedicated : SystemModel::Shared;
    options.lint_level = LintLevel::kReport;
    options.emit_certificates = true;
    options.check_certificates = true;
    Trace trace;
    options.trace = &trace;
    const DedicatedPlatform* platform = dedicated ? &inst.platform : nullptr;
    const AnalysisResult result = analyze(*inst.app, options, platform);
    ASSERT_TRUE(result.certificate && result.lint) << name;

    expect_dom_bytes(report_json(*inst.app, result), name + " report");
    expect_dom_bytes(report_json(*inst.app, result, &trace), name + " timed report");
    expect_dom_bytes(certificate_json(*result.certificate), name + " certificate");
    expect_dom_bytes(lint_json(*result.lint), name + " lint");
    expect_dom_bytes(trace.json(), name + " trace");
    expect_dom_bytes(trace.chrome_json(), name + " chrome trace");
    options.trace = nullptr;
    AnalysisSession session(*inst.app, options, platform);
    expect_dom_bytes(report_json(session), name + " session report");
    expect_dom_bytes(session_stats_json(session.stats()), name + " session stats");
    ++rendered;
  }
  EXPECT_GE(rendered, 4);

  std::ifstream in(std::string(RTLB_SOURCE_DIR) + "/examples/fleet/smoke.json");
  const ScenarioSpec spec =
      ScenarioSpec::from_text(std::string(std::istreambuf_iterator<char>(in), {}));
  FleetOptions fleet;
  fleet.stop_after = 6;
  const FleetRunResult run = run_fleet(spec, fleet);
  expect_dom_bytes(fleet_report_json(spec, run.aggregates, 1, 0, run.complete), "fleet report");
#else
  GTEST_SKIP() << "RTLB_SOURCE_DIR not defined";
#endif
}

}  // namespace
}  // namespace rtlb
