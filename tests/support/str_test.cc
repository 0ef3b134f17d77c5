#include <gtest/gtest.h>

#include "support/str.h"

namespace bitspec
{
namespace
{

TEST(Str, Format)
{
    EXPECT_EQ(strFormat("x=%d y=%s", 7, "hi"), "x=7 y=hi");
    EXPECT_EQ(strFormat("%05.1f", 2.25), "002.2");
}

TEST(Str, Split)
{
    auto parts = strSplit("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Str, Pad)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(Str, JsonEscapeRoundTrips)
{
    const std::string raw = "q\"b\\n\nt\tr\r\x01\x1f/\xc3\xa9";
    const std::string esc = jsonEscape(raw);
    EXPECT_EQ(esc, "q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f/\xc3\xa9");
    const std::string lit = "x\"" + esc + "\"y";
    std::string back;
    EXPECT_EQ(readJsonString(lit, 1, back), lit.size() - 2);
    EXPECT_EQ(back, raw);

    // \/, \b, \f and \u above ASCII (as UTF-8) decode too; a literal
    // cut short reads as npos.
    back.clear();
    EXPECT_EQ(readJsonString("\"\\/\\b\\f\\u00e9\"", 0, back), 13u);
    EXPECT_EQ(back, "/\b\f\xc3\xa9");
    back.clear();
    EXPECT_EQ(readJsonString("\"abc\\\"", 0, back), std::string::npos);
    EXPECT_EQ(readJsonString("\"\\u00", 0, back), std::string::npos);
}

} // namespace
} // namespace bitspec
