#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>

#include "src/common/csv.hpp"
#include "src/common/json.hpp"
#include "src/common/random.hpp"
#include "src/common/ratio.hpp"
#include "src/common/strings.hpp"
#include "src/common/table.hpp"
#include "src/common/types.hpp"

namespace rtlb {
namespace {

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div(3, 3), 1);
  EXPECT_EQ(ceil_div(4, 3), 2);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
}

TEST(Types, AlphaMatchesDefinition4) {
  EXPECT_EQ(alpha(5), 5);
  EXPECT_EQ(alpha(0), 0);
  EXPECT_EQ(alpha(-7), 0);
}

TEST(Types, MuMatchesDefinition4) {
  EXPECT_EQ(mu(5), 1);
  EXPECT_EQ(mu(0), 0);
  EXPECT_EQ(mu(-1), 0);
}

TEST(Ratio, ExactComparisonWithoutOverflow) {
  // Values large enough that naive double comparison would lose precision.
  const std::int64_t big = 3'000'000'000'000'000'000LL / 3;
  Ratio a{big, big - 1};
  Ratio b{big + 1, big};
  // a = big/(big-1) > (big+1)/big = b  <=>  big^2 > (big+1)(big-1) = big^2-1.
  EXPECT_TRUE(b < a);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(a == b);
}

TEST(Ratio, CeilAndEquality) {
  EXPECT_EQ((Ratio{9, 3}).ceil(), 3);
  EXPECT_EQ((Ratio{10, 3}).ceil(), 4);
  EXPECT_EQ((Ratio{0, 1}).ceil(), 0);
  EXPECT_TRUE((Ratio{2, 4}) == (Ratio{1, 2}));
}

TEST(Ratio, MaxRatioKeepsLargest) {
  MaxRatio m;
  m.update(1, 2);
  m.update(3, 4);
  m.update(2, 3);
  EXPECT_TRUE(m.best() == (Ratio{3, 4}));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all 9 values hit over 1000 draws
}

TEST(Rng, UniformSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(4, 4), 4);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitSumExactTotalAndPositivity) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t total = rng.uniform(10, 500);
    const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 9));
    if (total < static_cast<std::int64_t>(n)) continue;
    const auto parts = rng.split_sum(total, n);
    ASSERT_EQ(parts.size(), n);
    std::int64_t sum = 0;
    for (auto p : parts) {
      EXPECT_GE(p, 1);
      sum += p;
    }
    EXPECT_EQ(sum, total);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  const auto fields = [](std::string_view s) {
    std::vector<std::string> out;
    for_each_field(s, ',', [&](std::string_view f) { out.emplace_back(f); });
    return out;
  };
  EXPECT_EQ(fields("a,b,,c"), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(fields("a,"), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(fields(""), std::vector<std::string>{""});
  EXPECT_EQ(split_ws("  a \t b\nc "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, JoinAndBraceSet) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(brace_set({"x", "y"}), "{x,y}");
  EXPECT_EQ(brace_set({}), "-");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42", "test"), 42);
  EXPECT_EQ(parse_int("-7", "test"), -7);
  EXPECT_EQ(parse_int("  13 ", "test"), 13);
  EXPECT_THROW(parse_int("4x", "test"), ModelError);
  EXPECT_THROW(parse_int("", "test"), ModelError);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Table, CsvMirrorsRows) {
  Table t({"k", "v"});
  t.add("x", 1);
  t.add("with,comma", 2);
  std::ostringstream out;
  t.to_csv(out);
  EXPECT_EQ(out.str(), "k,v\nx,1\n\"with,comma\",2\n");
}

TEST(Csv, WritesHeaderAndEscapes) {
  std::ostringstream out;
  CsvWriter csv(out, {"k", "v"});
  csv.write("plain", 1);
  csv.write("with,comma", 2);
  csv.write("with\"quote", 3);
  EXPECT_EQ(out.str(), "k,v\nplain,1\n\"with,comma\",2\n\"with\"\"quote\",3\n");
}

TEST(JsonParse, ScalarsAndContainers) {
  const Json doc = Json::parse(
      R"({"n": null, "t": true, "f": false, "i": -42, "d": 2.5,)"
      R"( "s": "hi\nthere", "a": [1, 2, 3], "o": {"k": "v"}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_TRUE(doc.find("t")->as_bool());
  EXPECT_FALSE(doc.find("f")->as_bool());
  EXPECT_EQ(doc.find("i")->as_int(), -42);
  EXPECT_DOUBLE_EQ(doc.find("d")->as_double(), 2.5);
  EXPECT_EQ(doc.find("s")->as_string(), "hi\nthere");
  ASSERT_TRUE(doc.find("a")->is_array());
  EXPECT_EQ(doc.find("a")->size(), 3u);
  EXPECT_EQ(doc.find("a")->at(2).as_int(), 3);
  EXPECT_EQ(doc.find("o")->find("k")->as_string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsDump) {
  Json doc = Json::object();
  doc.set("tasks", Json::array().push(Json::object().set("id", 7).set("name", "τ\"x\"")));
  doc.set("bound", 3);
  doc.set("ratio", 1.5);
  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.dump(), doc.dump());
}

TEST(JsonParse, UnicodeEscapes) {
  const Json doc = Json::parse(R"(["\u0041", "\u00e9", "\u20ac", "\ud83d\ude00"])");
  EXPECT_EQ(doc.at(0).as_string(), "A");
  EXPECT_EQ(doc.at(1).as_string(), "\xC3\xA9");
  EXPECT_EQ(doc.at(2).as_string(), "\xE2\x82\xAC");
  EXPECT_EQ(doc.at(3).as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, IntegerPrecisionAndOverflowFallback) {
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  // One past int64 max degrades to double rather than failing.
  EXPECT_TRUE(Json::parse("9223372036854775808").is_double());
  EXPECT_TRUE(Json::parse("1e3").is_double());
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",          "{",        "[1,]",      "{\"k\":}",   "{\"k\" 1}",
      "tru",       "nul",      "01",        "1.",         "1e",
      "\"\\q\"",   "\"\x01\"", "[1] tail",  "{\"a\":1,}", "-",
      "\"\\ud800\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW(Json::parse(text), JsonParseError) << "input: " << text;
  }
}

// Satellite regression: deeply nested hostile input must fail with a clear
// depth error, not by exhausting the call stack.
TEST(JsonParse, DeepNestingIsCappedWithClearError) {
  const std::string deep(100000, '[');
  try {
    Json::parse(deep);
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting depth exceeds limit of 64"),
              std::string::npos)
        << e.what();
  }

  // Right at the limit parses; one past it does not.
  std::string ok;
  for (int i = 0; i < 64; ++i) ok += '[';
  std::string ok_close = ok + "1";
  for (int i = 0; i < 64; ++i) ok_close += ']';
  EXPECT_NO_THROW(Json::parse(ok_close));
  EXPECT_THROW(Json::parse("[" + ok_close + "]"), JsonParseError);

  JsonParseOptions opts;
  opts.max_depth = 2;
  EXPECT_NO_THROW(Json::parse("[[1]]", opts));
  EXPECT_THROW(Json::parse("[[[1]]]", opts), JsonParseError);
}

TEST(JsonParse, SetReplacesAnExistingKey) {
  // set() must upsert: mutating a parsed document (the certificate mutation
  // harness does this) may not leave a shadowed duplicate key behind.
  Json doc = Json::parse("{\"version\": 1, \"n\": 2}");
  doc.set("version", 99);
  EXPECT_EQ(doc.find("version")->as_int(), 99);
  EXPECT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.find("n")->as_int(), 2);
}

// The bytes every report, certificate and lint document is made of, pinned
// so the DOM's builder and writer can change without the output moving.
TEST(JsonDump, StringEscapesArePinned) {
  EXPECT_EQ(Json("\"").dump(), R"("\"")");
  EXPECT_EQ(Json("\\").dump(), R"("\\")");
  EXPECT_EQ(Json("\n").dump(), R"("\n")");
  EXPECT_EQ(Json("\r").dump(), R"("\r")");
  EXPECT_EQ(Json("\t").dump(), R"("\t")");
  EXPECT_EQ(Json("\b\f").dump(), R"("\u0008\u000c")");
  EXPECT_EQ(Json("\x1f").dump(), R"("\u001f")");
  EXPECT_EQ(Json("\x7f").dump(), "\"\x7f\"");  // DEL is not a control escape
  EXPECT_EQ(Json(std::string("a\0b", 3)).dump(), R"("a\u0000b")");
  // Multi-byte UTF-8 passes through untouched, also as an object key.
  Json named = Json::object();
  named.set("caf\xc3\xa9 \xce\x94t", "\xe2\x86\x92 r\xc3\xa9sum\xc3\xa9");
  EXPECT_EQ(named.dump(), "{\"caf\xc3\xa9 \xce\x94t\":\"\xe2\x86\x92 r\xc3\xa9sum\xc3\xa9\"}");
  EXPECT_EQ(Json("plain text, then \"quoted\"\ttail").dump(),
            R"("plain text, then \"quoted\"\ttail")");
}

TEST(JsonDump, IntegersAndDoublesArePinned) {
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(), "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::max()).dump(), "9223372036854775807");
  EXPECT_EQ(Json(kTimeMax).dump(), "2305843009213693951");
  EXPECT_EQ(Json(0).dump(), "0");
  EXPECT_EQ(Json(-1).dump(), "-1");
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(1.0 / 3.0).dump(), "0.3333333333");
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(1e20).dump(), "1e+20");
  EXPECT_EQ(Json(123456789012.0).dump(), "1.23456789e+11");
  EXPECT_EQ(Json(4.0).dump(), "4");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonDump, NestedEmptiesAndUpsertArePinnedCompactAndPretty) {
  Json inner = Json::array();
  inner.push(Json::object()).push(Json::array()).push(Json::object().set("x", 1.5));
  Json doc = Json::object();
  doc.set("a", 1)
      .set("empty_obj", Json::object())
      .set("empty_arr", Json::array())
      .set("nested", std::move(inner))
      .set("a", "replaced")  // upsert keeps the key's first position
      .set("n", Json());
  EXPECT_EQ(doc.dump(), R"({"a":"replaced","empty_obj":{},"empty_arr":[],)"
                       R"("nested":[{},[],{"x":1.5}],"n":null})");
  EXPECT_EQ(doc.dump(2),
            "{\n"
            "  \"a\": \"replaced\",\n"
            "  \"empty_obj\": {},\n"
            "  \"empty_arr\": [],\n"
            "  \"nested\": [\n"
            "    {},\n"
            "    [],\n"
            "    {\n"
            "      \"x\": 1.5\n"
            "    }\n"
            "  ],\n"
            "  \"n\": null\n"
            "}");
  EXPECT_EQ(Json::object().dump(2), "{}");
  EXPECT_EQ(Json::array().dump(2), "[]");
  EXPECT_EQ(Json(7).dump(2), "7");
}

}  // namespace
}  // namespace rtlb
