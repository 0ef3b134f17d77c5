/**
 * @file
 * String formatting helpers used by printers and experiment tables.
 */

#ifndef BITSPEC_SUPPORT_STR_H_
#define BITSPEC_SUPPORT_STR_H_

#include <string>

namespace bitspec
{

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace bitspec

#endif // BITSPEC_SUPPORT_STR_H_
