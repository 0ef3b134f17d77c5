#include "support/str.h"

#include <cstdarg>
#include <cstdio>

namespace bitspec
{

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(static_cast<size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    va_end(args2);
    return out;
}

} // namespace bitspec
