// The audit subsystem's contract tests:
//
//  1. HEAD is clean: auditing the real src/ tree against the committed
//     manifest yields no finding outside the committed audit.baseline.
//  2. The planted corpus under tests/audit/bad/ is flagged at EXACT
//     file:line positions -- one tuple per planted violation.
//  3. Every manifest rule is load-bearing: deleting any single rule loses
//     at least one corpus finding.
//  4. Inline `audit-ok` suppressions are honoured only with a reason.
//  5. One-line breaks trip the named invariants: giving the checker a core/
//     include trips RTLB-A002, writing a shared capture without a slot at a
//     parallel_for site trips RTLB-A201.
//  6. Scanner/manifest/baseline plumbing edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/audit/audit.hpp"
#include "src/audit/manifest.hpp"
#include "src/audit/registry.hpp"
#include "src/audit/rules.hpp"
#include "src/audit/source.hpp"
#include "src/common/types.hpp"
#include "src/lint/baseline.hpp"

namespace rtlb::audit {
namespace {

const std::string kRepoRoot = RTLB_SOURCE_DIR;
const std::string kCorpusRoot = kRepoRoot + "/tests/audit/bad";

const Manifest& repo_manifest() {
  static const Manifest m = load_manifest_file(kRepoRoot + "/audit/rules.json");
  return m;
}

std::string dump(const Result& r) { return format_audit_text(r, /*quiet_hints=*/true); }

// -- 1. HEAD cleanliness ----------------------------------------------------

TEST(AuditHead, RepoIsCleanModuloCommittedBaseline) {
  Result result = run_audit(repo_manifest(), kRepoRoot);
  apply_baseline(result, read_baseline_file(kRepoRoot + "/audit.baseline"));
  EXPECT_EQ(result.new_findings(), 0) << dump(result);
  EXPECT_GT(result.files_scanned, 100);
}

TEST(AuditHead, EveryBaselineEntryIsLive) {
  // A baseline key no finding matches is stale and must be deleted.
  const std::set<std::string> baseline =
      read_baseline_file(kRepoRoot + "/audit.baseline");
  Result result = run_audit(repo_manifest(), kRepoRoot);
  std::set<std::string> live;
  for (const Finding& f : result.findings) live.insert(baseline_key(f));
  for (const std::string& key : baseline) {
    EXPECT_TRUE(live.count(key) > 0) << "stale baseline entry: " << key;
  }
}

// -- 2. exact file:line corpus ----------------------------------------------

struct Planted {
  const char* file;
  int line;
  const char* code;
};

// One tuple per planted violation in tests/audit/bad/. Keep in sync with the
// corpus files (each is headed "do not renumber lines").
const std::vector<Planted>& planted() {
  static const std::vector<Planted> kPlanted{
      {"src/core/bad_determinism.cpp", 14, "RTLB-A101"},
      {"src/core/bad_determinism.cpp", 17, "RTLB-A101"},
      {"src/core/bad_determinism.cpp", 24, "RTLB-A102"},
      {"src/core/bad_determinism.cpp", 26, "RTLB-A102"},
      {"src/core/bad_determinism.cpp", 30, "RTLB-A103"},
      {"src/core/bad_parallel.cpp", 15, "RTLB-A201"},
      {"src/core/bad_parallel.cpp", 16, "RTLB-A201"},
      {"src/core/lower_bound.cpp", 8, "RTLB-A104"},
      {"src/core/lower_bound.cpp", 10, "RTLB-A301"},
      {"src/core/lower_bound.cpp", 13, "RTLB-A302"},
      {"src/core/lower_bound.cpp", 16, "RTLB-A302"},  // reason-less audit-ok
      {"src/fleet/bad_reach.cpp", 8, "RTLB-A001"},
      {"src/fleet/bad_reach.cpp", 9, "RTLB-A001"},
      {"src/verify/checker.cpp", 9, "RTLB-A001"},
      {"src/verify/checker.cpp", 9, "RTLB-A002"},
  };
  return kPlanted;
}

std::vector<Planted> as_tuples(const Result& r) {
  std::vector<Planted> got;
  for (const Finding& f : r.findings) {
    got.push_back({f.file.c_str(), f.diag.line, f.diag.code.data()});  // registry text
  }
  return got;
}

TEST(AuditCorpus, EveryPlantedViolationFlaggedAtExactLine) {
  const Result result = run_audit(repo_manifest(), kCorpusRoot);
  ASSERT_EQ(result.findings.size(), planted().size()) << dump(result);
  const std::vector<Planted> got = as_tuples(result);
  for (std::size_t i = 0; i < planted().size(); ++i) {
    EXPECT_STREQ(got[i].file, planted()[i].file);
    EXPECT_EQ(got[i].line, planted()[i].line) << planted()[i].file;
    EXPECT_STREQ(got[i].code, planted()[i].code) << planted()[i].file;
  }
  // The reasoned audit-ok in the corpus was honoured (and counted).
  EXPECT_EQ(result.suppressed, 1);
}

TEST(AuditCorpus, EveryAuditCodeIsExercisedByTheCorpus) {
  const Result result = run_audit(repo_manifest(), kCorpusRoot);
  std::set<std::string> seen;
  for (const Finding& f : result.findings) seen.emplace(f.diag.code);
  seen.insert("RTLB-A302");  // also via the suppression test above
  for (const DiagInfo& info : all_audit_info()) {
    EXPECT_TRUE(seen.count(info.code) > 0) << info.code << " never fires on the corpus";
  }
}

// -- 3. every rule is load-bearing ------------------------------------------

TEST(AuditManifest, DeletingAnyRuleLosesACorpusFinding) {
  const Result full = run_audit(repo_manifest(), kCorpusRoot);
  for (std::size_t drop = 0; drop < repo_manifest().rules.size(); ++drop) {
    Manifest pruned = repo_manifest();
    const std::string code = pruned.rules[drop].code;
    pruned.rules.erase(pruned.rules.begin() + static_cast<std::ptrdiff_t>(drop));
    const Result r = run_audit(pruned, kCorpusRoot);
    EXPECT_LT(r.findings.size(), full.findings.size())
        << "rule " << code << " flags nothing in the corpus: it is not load-bearing";
    for (const Finding& f : r.findings) EXPECT_NE(f.diag.code, code);
  }
}

// -- 4./5. one-line breaks and suppressions, on synthetic sources -----------

Result audit_snippet(const std::string& path, const std::string& text) {
  // Route a single in-memory file through the rule engine exactly as the
  // driver would, via a temp-free in-process scan.
  const SourceFile src = scan_source(path, text);
  LintResult batch;
  DiagnosticSink sink(batch, LintOptions{}, audit_info);
  for (const Rule& rule : repo_manifest().rules) run_rule(rule, src, sink);
  Result out;
  out.files_scanned = 1;
  for (Diagnostic& d : batch.diagnostics) {
    if (src.suppressed(d.code, d.line)) {
      ++out.suppressed;
      continue;
    }
    out.findings.push_back({path, std::move(d), false});
  }
  return out;
}

std::set<std::string> codes_of(const Result& r) {
  std::set<std::string> codes;
  for (const Finding& f : r.findings) codes.emplace(f.diag.code);
  return codes;
}

TEST(AuditBreaks, CheckerGainingACoreIncludeTripsA002) {
  // The real checker.cpp is clean today; one added include line breaks the
  // independence contract and must trip the NAMED code.
  const Result clean = audit_snippet("src/verify/checker.cpp",
                                     "#include \"src/verify/checker.hpp\"\n");
  EXPECT_TRUE(clean.findings.empty()) << dump(clean);
  const Result broken =
      audit_snippet("src/verify/checker.cpp",
                    "#include \"src/verify/checker.hpp\"\n"
                    "#include \"src/core/lower_bound.hpp\"\n");
  EXPECT_TRUE(codes_of(broken).count("RTLB-A002") > 0) << dump(broken);
  EXPECT_EQ(broken.findings[0].diag.line, 2);
}

TEST(AuditBreaks, EmitStaysAGatewayButOtherVerifyFilesDoNot) {
  // emit.cpp reaching core/ is a declared gateway: no finding. The same
  // include from certificate.cpp trips both layering and independence.
  const Result gateway = audit_snippet("src/verify/emit.cpp",
                                       "#include \"src/core/overlap.hpp\"\n");
  EXPECT_TRUE(gateway.findings.empty()) << dump(gateway);
  const Result broken = audit_snippet("src/verify/certificate.cpp",
                                      "#include \"src/core/overlap.hpp\"\n");
  EXPECT_EQ(codes_of(broken), (std::set<std::string>{"RTLB-A001", "RTLB-A002"}));
}

TEST(AuditBreaks, SharedCaptureWriteAtParallelForSiteTripsA201) {
  const std::string slot_discipline =
      "void scan(ThreadPool& pool, std::vector<Time>& results) {\n"
      "  pool.parallel_for(results.size(), [&](std::size_t i) {\n"
      "    results[i] = Time{0};\n"
      "  });\n"
      "}\n";
  const Result clean = audit_snippet("src/core/scan.cpp", slot_discipline);
  EXPECT_TRUE(clean.findings.empty()) << dump(clean);

  // The one-line break: accumulate into the shared total instead.
  const std::string racy =
      "void scan(ThreadPool& pool, std::vector<Time>& results, Time& total) {\n"
      "  pool.parallel_for(results.size(), [&](std::size_t i) {\n"
      "    total = total + results[i];\n"
      "  });\n"
      "}\n";
  const Result broken = audit_snippet("src/core/scan.cpp", racy);
  ASSERT_EQ(broken.findings.size(), 1u) << dump(broken);
  EXPECT_EQ(broken.findings[0].diag.code, "RTLB-A201");
  EXPECT_EQ(broken.findings[0].diag.line, 3);
}

TEST(AuditBreaks, NamedLambdaCallablesAreResolved) {
  // The run_one idiom: the callable is named, defined earlier in the file.
  const std::string text =
      "void scan(ThreadPool& pool, std::vector<Time>& results, Time& total) {\n"
      "  auto run_one = [&](std::size_t i) { total += results[i]; };\n"
      "  pool.parallel_for(results.size(), run_one);\n"
      "}\n";
  const Result broken = audit_snippet("src/core/scan.cpp", text);
  ASSERT_EQ(broken.findings.size(), 1u) << dump(broken);
  EXPECT_EQ(broken.findings[0].diag.code, "RTLB-A201");
  EXPECT_EQ(broken.findings[0].diag.line, 2);
}

TEST(AuditSuppression, ReasonedAuditOkIsHonoured) {
  const std::string text =
      "Time f(Time a) {\n"
      "  Time sum = 0;\n"
      "  // audit-ok: RTLB-A302 bounded: single term\n"
      "  sum += a;\n"
      "  return sum;\n"
      "}\n";
  const Result r = audit_snippet("src/core/lower_bound.cpp", text);
  EXPECT_TRUE(r.findings.empty()) << dump(r);
  EXPECT_EQ(r.suppressed, 1);
}

TEST(AuditSuppression, ReasonlessAuditOkIsIgnored) {
  const std::string text =
      "Time f(Time a) {\n"
      "  Time sum = 0;\n"
      "  sum += a;  // audit-ok: RTLB-A302\n"
      "  return sum;\n"
      "}\n";
  const Result r = audit_snippet("src/core/lower_bound.cpp", text);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].diag.code, "RTLB-A302");
  EXPECT_EQ(r.suppressed, 0);
}

TEST(AuditSuppression, WrongCodeDoesNotSuppress) {
  const std::string text =
      "Time f(Time a) {\n"
      "  Time sum = 0;\n"
      "  // audit-ok: RTLB-A301 wrong code for this finding\n"
      "  sum += a;\n"
      "  return sum;\n"
      "}\n";
  const Result r = audit_snippet("src/core/lower_bound.cpp", text);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].diag.code, "RTLB-A302");
}

// -- 6. plumbing ------------------------------------------------------------

TEST(AuditScanner, TokenizerStripsCommentsStringsAndFindsIncludes) {
  const SourceFile src = scan_source(
      "src/core/x.cpp",
      "// comment with rand()\n"
      "/* block\n rand() */\n"
      "const char* s = \"rand()\";\n"
      "#include \"src/model/application.hpp\"\n"
      "#include <vector>\n");
  for (const Token& t : src.tokens) EXPECT_NE(t.text, "rand");
  ASSERT_EQ(src.includes.size(), 1u);
  EXPECT_EQ(src.includes[0].target, "src/model/application.hpp");
  EXPECT_EQ(src.includes[0].target_module, "model");
  EXPECT_EQ(src.includes[0].line, 5);  // the block comment spans lines 2-3
  EXPECT_EQ(src.module, "core");
  EXPECT_EQ(module_of("tools/rtlb_audit.cpp"), "");
}

TEST(AuditManifest, RejectsCyclicDagUnknownKindAndReasonlessGateway) {
  const std::string cyclic = R"({"version": 1, "rules": [{
    "code": "RTLB-A001", "kind": "layering",
    "modules": {"a": ["b"], "b": ["a"]}}]})";
  EXPECT_THROW(parse_manifest(Json::parse(cyclic)), ModelError);

  const std::string unknown_kind = R"({"version": 1, "rules": [{
    "code": "RTLB-A001", "kind": "telepathy"}]})";
  EXPECT_THROW(parse_manifest(Json::parse(unknown_kind)), ModelError);

  const std::string reasonless = R"({"version": 1, "rules": [{
    "code": "RTLB-A001", "kind": "layering", "modules": {"a": []},
    "gateways": [{"file": "src/a/x.cpp", "to": "b"}]}]})";
  EXPECT_THROW(parse_manifest(Json::parse(reasonless)), ModelError);

  const std::string unregistered = R"({"version": 1, "rules": [{
    "code": "RTLB-A999", "kind": "layering", "modules": {"a": []}}]})";
  EXPECT_THROW(parse_manifest(Json::parse(unregistered)), ModelError);
}

TEST(AuditJson, SchemaAndCountsMatchFindings) {
  Result result = run_audit(repo_manifest(), kCorpusRoot);
  // Baseline one KEY to prove the counters split correctly. Keys are
  // line-free, so every finding sharing the key is baselined together.
  ASSERT_FALSE(result.findings.empty());
  const std::string key = baseline_key(result.findings[0]);
  apply_baseline(result, {key});
  std::int64_t keyed = 0;
  for (const Finding& f : result.findings) keyed += baseline_key(f) == key;
  const Json j = audit_json(result);
  EXPECT_EQ(j.find("errors")->as_int(),
            static_cast<std::int64_t>(result.findings.size()) - keyed);
  EXPECT_EQ(j.find("baselined")->as_int(), keyed);
  EXPECT_EQ(j.find("suppressed")->as_int(), 1);
  ASSERT_NE(j.find("findings"), nullptr);
  EXPECT_EQ(j.find("findings")->size(), result.findings.size());
  const Json& first = j.find("findings")->at(0);
  for (const char* key : {"file", "line", "code", "severity", "subject",
                          "message", "hint", "baselined"}) {
    EXPECT_NE(first.find(key), nullptr) << key;
  }
  // Round-trips through the parser (valid JSON).
  EXPECT_NO_THROW(Json::parse(j.dump(2)));
}

TEST(AuditRegistry, CodesAreWellFormedAndDisjointFromLint) {
  for (const DiagInfo& info : all_audit_info()) {
    const std::string code = info.code;
    ASSERT_EQ(code.rfind("RTLB-A", 0), 0u) << code;
    EXPECT_EQ(audit_info(code), &info);
    EXPECT_NE(info.summary, nullptr);
    EXPECT_NE(info.fixit, nullptr);
  }
  EXPECT_EQ(audit_info("RTLB-E101"), nullptr);  // lint codes are elsewhere
}

}  // namespace
}  // namespace rtlb::audit
