#include "support/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace bitspec
{

namespace
{

/** Length of the RFC 8259 number at the start of @p s; 0 when none
 *  starts there or its fraction or exponent has no digits. */
size_t
numberLength(std::string_view s)
{
    size_t i = 0;
    auto digits = [&s, &i] {
        const size_t from = i;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9')
            ++i;
        return i > from;
    };
    if (i < s.size() && s[i] == '-')
        ++i;
    if (i < s.size() && s[i] == '0')
        ++i;
    else if (!digits())
        return 0;
    if (i < s.size() && s[i] == '.') {
        ++i;
        if (!digits())
            return 0;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (!digits())
            return 0;
    }
    return i;
}

void
appendUtf8(std::string &out, uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xc0 | cp >> 6);
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xe0 | cp >> 12);
        out += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | cp >> 18);
        out += static_cast<char>(0x80 | (cp >> 12 & 0x3f));
        out += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

/** Recursive descent over one text; depth is bounded by
 *  kJsonMaxDepth. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : s_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value(0);
        skipSpace();
        if (i_ != s_.size())
            fail("trailing bytes after the value");
        return v;
    }

  private:
    std::string_view s_;
    size_t i_ = 0;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError(i_, what);
    }

    void
    skipSpace()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    bool
    consume(std::string_view lit)
    {
        if (s_.substr(i_, lit.size()) != lit)
            return false;
        i_ += lit.size();
        return true;
    }

    void
    expect(char c)
    {
        if (i_ == s_.size() || s_[i_] != c)
            fail(std::string("expected '") + c + "'");
        ++i_;
    }

    JsonValue
    value(int depth)
    {
        skipSpace();
        if (i_ == s_.size())
            fail("unexpected end of input");
        JsonValue v;
        v.offset = i_;
        const char c = s_[i_];
        if (c == '{' || c == '[') {
            if (depth == kJsonMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(kJsonMaxDepth));
            if (c == '{')
                object(v, depth + 1);
            else
                array(v, depth + 1);
        } else if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.text = string();
        } else if (consume("true") || consume("false")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = c == 't';
        } else if (consume("null")) {
            v.kind = JsonValue::Kind::Null;
        } else {
            v.kind = JsonValue::Kind::Number;
            if (!consume("NaN") && !consume("Infinity") &&
                !consume("-Infinity")) {
                const size_t n = numberLength(s_.substr(i_));
                if (n == 0)
                    fail("expected a value");
                i_ += n;
            }
            v.text = s_.substr(v.offset, i_ - v.offset);
        }
        return v;
    }

    void
    object(JsonValue &v, int depth)
    {
        v.kind = JsonValue::Kind::Object;
        ++i_;
        skipSpace();
        if (consume("}"))
            return;
        for (;;) {
            skipSpace();
            std::string key = string();
            skipSpace();
            expect(':');
            JsonValue member = value(depth);
            v.members.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (!consume(",")) {
                expect('}');
                return;
            }
        }
    }

    void
    array(JsonValue &v, int depth)
    {
        v.kind = JsonValue::Kind::Array;
        ++i_;
        skipSpace();
        if (consume("]"))
            return;
        for (;;) {
            v.items.push_back(value(depth));
            skipSpace();
            if (!consume(",")) {
                expect(']');
                return;
            }
        }
    }

    /** The string literal that starts at i_, decoded. */
    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (i_ == s_.size())
                fail("unterminated string");
            const char c = s_[i_];
            if (c == '"') {
                ++i_;
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                fail("control character in string");
            ++i_;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (i_ == s_.size())
                fail("unterminated string");
            switch (s_[i_++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': appendUtf8(out, codePoint()); break;
              default:
                --i_;
                fail("invalid escape");
            }
        }
    }

    uint32_t
    hex4()
    {
        uint32_t v = 0;
        for (int k = 0; k < 4; ++k, ++i_) {
            const char c = i_ < s_.size() ? s_[i_] : '\0';
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<uint32_t>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return v;
    }

    /** The code point of a `\u` escape (its `\u` consumed), joining
     *  a surrogate pair. */
    uint32_t
    codePoint()
    {
        const uint32_t cp = hex4();
        if (cp >= 0xdc00 && cp <= 0xdfff)
            fail("unpaired surrogate");
        if (cp < 0xd800 || cp > 0xdbff)
            return cp;
        if (!consume("\\u"))
            fail("unpaired surrogate");
        const uint32_t lo = hex4();
        if (lo < 0xdc00 || lo > 0xdfff)
            fail("unpaired surrogate");
        return 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
    }
};

[[noreturn]] void
wrongKind(const JsonValue &v, const char *want)
{
    throw JsonError(v.offset, std::string("expected ") + want);
}

} // namespace

JsonError::JsonError(size_t offset, const std::string &what)
    : std::runtime_error(what + " at byte " + std::to_string(offset)),
      offset_(offset)
{
}

bool
JsonValue::asBool() const
{
    if (kind != Kind::Bool)
        wrongKind(*this, "true or false");
    return boolean;
}

double
JsonValue::asNumber() const
{
    if (kind != Kind::Number)
        wrongKind(*this, "a number");
    return std::strtod(text.c_str(), nullptr);
}

uint64_t
JsonValue::asU64() const
{
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    if (kind == Kind::Number) {
        const auto [p, ec] = std::from_chars(text.data(), end, v);
        if (ec == std::errc() && p == end)
            return v;
    }
    wrongKind(*this, "an unsigned 64-bit integer");
}

const std::string &
JsonValue::asString() const
{
    if (kind != Kind::String)
        wrongKind(*this, "a string");
    return text;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind != Kind::Array)
        wrongKind(*this, "an array");
    return items;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const
{
    if (kind != Kind::Object)
        wrongKind(*this, "an object");
    return members;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[name, v] : asObject())
        if (name == key)
            return &v;
    return nullptr;
}

std::string
JsonValue::getString(std::string_view key, std::string_view def) const
{
    const JsonValue *v = find(key);
    return v ? v->asString() : std::string(def);
}

uint64_t
JsonValue::getU64(std::string_view key) const
{
    const JsonValue *v = find(key);
    return v ? v->asU64() : 0;
}

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).document();
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

std::string
jsonNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v < 0 ? "-Infinity" : "Infinity";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
isJsonNumber(std::string_view s)
{
    return !s.empty() && numberLength(s) == s.size();
}

size_t
SkippedLines::firstCorruptBeforeLast() const
{
    for (size_t line : corrupt)
        if (line != lastLine)
            return line;
    return 0;
}

std::vector<std::string>
SkippedLines::messages(const std::string &path) const
{
    std::vector<std::string> out;
    auto list = [&](const std::vector<size_t> &lines, const char *why) {
        for (size_t line : lines)
            out.push_back(path + ":" + std::to_string(line) + ": " + why);
    };
    list(corrupt, "skipped a line that is not one whole record");
    list(newer, "skipped a record of a newer schema");
    return out;
}

void
readJsonLines(const std::string &path,
              const std::function<JsonLine(const std::string &)> &read,
              SkippedLines *skipped)
{
    std::ifstream in(path);
    std::string line;
    for (size_t n = 1; std::getline(in, line); ++n) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const JsonLine kind = read(line);
        if (!skipped)
            continue;
        skipped->lastLine = n;
        if (kind == JsonLine::Corrupt)
            skipped->corrupt.push_back(n);
        else if (kind == JsonLine::Newer)
            skipped->newer.push_back(n);
    }
}

} // namespace bitspec
