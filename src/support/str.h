/**
 * @file
 * String formatting helpers used by printers and experiment tables.
 */

#ifndef BITSPEC_SUPPORT_STR_H_
#define BITSPEC_SUPPORT_STR_H_

#include <string>
#include <string_view>
#include <vector>

namespace bitspec
{

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> strSplit(const std::string &s, char sep);

/** Left-pad @p s with spaces to at least @p width characters. */
std::string padLeft(const std::string &s, size_t width);

/** Right-pad @p s with spaces to at least @p width characters. */
std::string padRight(const std::string &s, size_t width);

/** @p s as the contents of a JSON string literal: `"` and `\`
 *  backslash-escaped, newline, tab and carriage return as `\n`, `\t`
 *  and `\r`, every other control character as `\u00XX`. */
std::string jsonEscape(std::string_view s);

/**
 * Decode the JSON string literal whose opening quote is at @p open in
 * @p text into @p out (every escape jsonEscape writes, plus `\/`,
 * `\b`, `\f` and any `\uXXXX` below U+10000, as UTF-8). Returns the
 * index of the closing quote, or npos when the literal does not end
 * inside @p text.
 */
size_t readJsonString(std::string_view text, size_t open,
                      std::string &out);

} // namespace bitspec

#endif // BITSPEC_SUPPORT_STR_H_
