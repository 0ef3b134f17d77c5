/**
 * @file
 * String formatting helpers used by printers and experiment tables.
 */

#ifndef BITSPEC_SUPPORT_STR_H_
#define BITSPEC_SUPPORT_STR_H_

#include <string>
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

} // namespace bitspec

#endif // BITSPEC_SUPPORT_STR_H_
