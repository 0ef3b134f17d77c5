#include <gtest/gtest.h>

#include "support/json.h"
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

TEST(Str, JsonEscapeRoundTrips)
{
    const std::string raw = "q\"b\\n\nt\tr\r\x01\x1f/\xc3\xa9";
    const std::string esc = jsonEscape(raw);
    EXPECT_EQ(esc, "q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f/\xc3\xa9");
    EXPECT_EQ(parseJson("\"" + esc + "\"").asString(), raw);

    // \/, \b, \f and \u above ASCII (as UTF-8) decode too; a literal
    // cut short throws.
    EXPECT_EQ(parseJson("\"\\/\\b\\f\\u00e9\"").asString(),
              "/\b\f\xc3\xa9");
    EXPECT_THROW(parseJson("\"abc\\\""), JsonError);
    EXPECT_THROW(parseJson("\"\\u00"), JsonError);
}

} // namespace
} // namespace bitspec
