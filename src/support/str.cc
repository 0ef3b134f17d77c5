#include "support/str.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

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

std::vector<std::string>
strSplit(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
padLeft(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

size_t
readJsonString(std::string_view text, size_t open, std::string &out)
{
    for (size_t i = open + 1; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '"')
            return i;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++i == text.size())
            break;
        switch (text[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (i + 4 >= text.size())
                return std::string_view::npos;
            const std::string hex(text.substr(i + 1, 4));
            const unsigned long cp = std::strtoul(hex.c_str(), nullptr, 16);
            i += 4;
            if (cp < 0x80) {
                out += static_cast<char>(cp);
            } else if (cp < 0x800) {
                out += static_cast<char>(0xc0 | cp >> 6);
                out += static_cast<char>(0x80 | (cp & 0x3f));
            } else {
                out += static_cast<char>(0xe0 | cp >> 12);
                out += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
                out += static_cast<char>(0x80 | (cp & 0x3f));
            }
            break;
          }
          default: out += text[i]; break; // '"', '\\', '/'.
        }
    }
    return std::string_view::npos;
}

} // namespace bitspec
