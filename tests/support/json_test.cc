#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/json.h"

namespace bitspec
{
namespace
{

/** Ledger.GoldenSerialization's line: a record with env, fields,
 *  region and heat rows. */
const char *const kLedgerGolden =
    "{\"schema_version\":1,\"kind\":\"cell\",\"flavour\":\"f\","
    "\"bench\":\"b\",\"workload\":\"w\",\"cell_key\":\"ck\","
    "\"system_key\":\"sk\",\"artifact_key\":\"ak\","
    "\"cache_source\":\"compile\",\"engine\":\"fast\","
    "\"policy\":\"hardware\",\"profile_seed\":1,\"run_seed\":2,"
    "\"policy_seed\":3,\"output_checksum\":\"00000000deadbeef\","
    "\"env\":{\"BITSPEC_LOG\":\"debug\"},"
    "\"fields\":{\"a.b\":1.5,\"counters.cycles\":8},"
    "\"regions\":[{\"function\":\"main\",\"region\":2,"
    "\"line\":10,\"entries\":5,\"misspecs\":1,\"spec_insts\":7,"
    "\"handler_insts\":3,\"handler_cycles\":4}],"
    "\"heat\":[{\"function\":\"main\",\"block\":\"bb3\","
    "\"region\":2,\"line\":10,\"entries\":5,\"insts\":6,"
    "\"cycles\":7,\"misspecs\":1}]}";

/** google-benchmark output as its JSON reporter writes it. */
const char *const kBenchFixture = R"({
  "context": {
    "num_cpus": 4,
    "caches": [
      { "type": "Data", "level": 1, "size": 49152 }
    ],
    "load_avg": [1.09033,1.34473,1.58643],
    "library_build_type": "release"
  },
  "benchmarks": [
    {
      "name": "BM_CoreWorkload/susan-edges",
      "iterations": 72,
      "real_time": 1.0422520971992020e+06,
      "items_per_second": 2.3887113538820344e+08,
      "error_occurred": false,
      "label": "x\"y",
      "cv": NaN
    }
  ]
})";

TEST(Json, ReadsEveryKind)
{
    const JsonValue v = parseJson(
        " {\"n\":null,\"t\":true,\"f\":false,\"x\":-1.5e3,"
        "\"s\":\"a\\u00e9\\ud83d\\ude00\",\"a\":[1,[],{}]} \n");
    EXPECT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.offset, 1u);
    ASSERT_EQ(v.asObject().size(), 6u);
    EXPECT_EQ(v.find("n")->kind, JsonValue::Kind::Null);
    EXPECT_TRUE(v.find("t")->asBool());
    EXPECT_FALSE(v.find("f")->asBool());
    EXPECT_EQ(v.find("x")->asNumber(), -1500.0);
    EXPECT_EQ(v.find("x")->text, "-1.5e3");
    EXPECT_EQ(v.getString("s"), "a\xc3\xa9\xf0\x9f\x98\x80");
    const std::vector<JsonValue> &a = v.find("a")->asArray();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0].asU64(), 1u);
    EXPECT_TRUE(a[1].asArray().empty());
    EXPECT_TRUE(a[2].asObject().empty());
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(v.getString("missing", "dflt"), "dflt");
    EXPECT_EQ(v.getU64("missing"), 0u);

    // A read of another kind names the value's offset.
    try {
        v.find("t")->asString();
        ADD_FAILURE() << "asString of a bool did not throw";
    } catch (const JsonError &e) {
        EXPECT_EQ(e.offset(), std::string(" {\"n\":null,\"t\":").size());
    }
    EXPECT_THROW(v.find("x")->asU64(), JsonError);
    EXPECT_THROW(a[0].find("k"), JsonError);
}

TEST(Json, NumbersKeepTheirToken)
{
    EXPECT_EQ(parseJson("18446744073709551615").asU64(), UINT64_MAX);
    EXPECT_EQ(parseJson("9007199254740993").asU64(),
              (uint64_t{1} << 53) + 1);
    EXPECT_THROW(parseJson("18446744073709551616").asU64(), JsonError);
    EXPECT_THROW(parseJson("-1").asU64(), JsonError);
    EXPECT_THROW(parseJson("1e3").asU64(), JsonError);

    for (double v : {0.1, 1.0 / 3.0, -0.0, 1e308, DBL_MIN, DBL_TRUE_MIN,
                     DBL_MAX, 262758000.0, -2.65943}) {
        const std::string text = jsonNumber(v);
        EXPECT_TRUE(isJsonNumber(text)) << text;
        const double back = parseJson(text).asNumber();
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
    }
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(jsonNumber(8), "8");

    // google-benchmark's literals, which jsonNumber writes too.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(jsonNumber(inf), "Infinity");
    EXPECT_EQ(jsonNumber(-inf), "-Infinity");
    EXPECT_EQ(jsonNumber(std::nan("")), "NaN");
    EXPECT_EQ(parseJson("Infinity").asNumber(), inf);
    EXPECT_EQ(parseJson("-Infinity").asNumber(), -inf);
    EXPECT_TRUE(std::isnan(parseJson("[NaN]").asArray()[0].asNumber()));
}

TEST(Json, RejectsAllButOneValue)
{
    for (const char *bad :
         {"", " ", "{", "{\"a\":1", "{\"a\":1}x", "{\"a\":1} garbage",
          "[1,]", "{\"a\":1,}", "{,}", "[,1]", "{\"a\" 1}", "{a:1}",
          "[1 2]", "1 2", "01", "1.", ".5", "+1", "1e", "1e+", "-",
          "--1", "1500x", "0x1f", "inf", "nan", "NaNx", "Infinit",
          "tru", "nul", "True", "'a'", "\"a", "\"a\nb\"", "\"\\x\"",
          "\"\\u12\"", "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"",
          "}", "]", ":"}) {
        EXPECT_THROW(parseJson(bad), JsonError) << "'" << bad << "'";
    }

    // The error names where the text stopped being JSON.
    try {
        parseJson("{\"a\":1} x");
        ADD_FAILURE() << "trailing bytes accepted";
    } catch (const JsonError &e) {
        EXPECT_EQ(e.offset(), 8u);
        EXPECT_NE(std::string(e.what()).find("at byte 8"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, IsJsonNumberFollowsTheGrammar)
{
    for (const char *good :
         {"0", "-0", "12", "-0.5", "1e3", "1E+3", "1.5e-07", "262758000"})
        EXPECT_TRUE(isJsonNumber(good)) << good;
    for (const char *bad :
         {"", " 12", "12 ", "1.", ".5", "01", "+1", "1e", "--1", "inf",
          "nan", "NaN", "Infinity", "-Infinity", "0x1f", "1,5", "12a"})
        EXPECT_FALSE(isJsonNumber(bad)) << bad;
}

TEST(Json, NestingIsBounded)
{
    const auto nested = [](int depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(parseJson(nested(kJsonMaxDepth)));
    EXPECT_THROW(parseJson(nested(kJsonMaxDepth + 1)), JsonError);
    // Far past the bound: an error, not a stack overflow.
    EXPECT_THROW(parseJson(std::string(1 << 20, '[')), JsonError);
    EXPECT_THROW(parseJson(std::string(1 << 20, '{')), JsonError);
}

TEST(Json, EveryOneByteEditParsesOrThrows)
{
    // Run under ASan/UBSan this is the reader's memory-safety sweep:
    // every one-byte deletion, and every one-byte replacement by a
    // structural character, a digit or a letter, of two real inputs.
    const std::string replacements = "{}[]\":,.-+eE0x";
    for (const std::string text : {kLedgerGolden, kBenchFixture}) {
        ASSERT_NO_THROW(parseJson(text));
        size_t accepted = 0, total = 0;
        for (size_t i = 0; i < text.size(); ++i) {
            std::string cut = text;
            cut.erase(i, 1);
            std::vector<std::string> edits = {cut};
            for (char c : replacements) {
                std::string edit = text;
                edit[i] = c;
                edits.push_back(edit);
            }
            // Any exception but JsonError escapes and fails the test.
            for (const std::string &edit : edits) {
                ++total;
                try {
                    parseJson(edit);
                    ++accepted;
                } catch (const JsonError &) {
                }
            }
        }
        EXPECT_GT(accepted, 0u);
        EXPECT_LT(accepted, total);
    }
}

} // namespace
} // namespace bitspec
