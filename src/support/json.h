/**
 * @file
 * The one place that knows the JSON format (RFC 8259): a strict
 * reader for the ledger, the perf history and google-benchmark
 * output, the string escaper every writer uses, the one number
 * format, and the JSON-lines loop of the ledger and history loaders,
 * which names the lines it skips.
 *
 * The reader accepts exactly one value plus surrounding whitespace;
 * anything else (a torn line, trailing bytes, `1500x`, a bad escape,
 * nesting deeper than kJsonMaxDepth) throws JsonError naming the byte
 * offset. Its only extension is the `NaN`, `Infinity` and `-Infinity`
 * literals google-benchmark writes, which jsonNumber writes too.
 * Bytes at or above 0x80 pass through strings unchecked.
 */

#ifndef BITSPEC_SUPPORT_JSON_H_
#define BITSPEC_SUPPORT_JSON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bitspec
{

/** Arrays and objects nested deeper than this are rejected. */
constexpr int kJsonMaxDepth = 64;

/** Malformed JSON, or a value of another kind than the reader needs;
 *  what() ends with the byte offset. */
class JsonError : public std::runtime_error
{
  public:
    JsonError(size_t offset, const std::string &what);

    size_t offset() const { return offset_; }

  private:
    size_t offset_;
};

/** One parsed value. A number keeps its token as written, so an
 *  integer reads back exactly and a jsonNumber() double bit for bit. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    size_t offset = 0; ///< Byte offset of the value in the text.
    bool boolean = false;
    /** A string's decoded contents, or a number's token. */
    std::string text;
    std::vector<JsonValue> items; ///< Array elements.
    /** Object members in text order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** @name Typed reads: each throws JsonError on another kind. */
    /// @{
    bool asBool() const;
    /** strtod of the token: correctly rounded. */
    double asNumber() const;
    /** A token of digits only that fits in 64 bits. */
    uint64_t asU64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::vector<std::pair<std::string, JsonValue>> &
    asObject() const;
    /// @}

    /** The first member named @p key of this object; nullptr when
     *  absent. */
    const JsonValue *find(std::string_view key) const;

    /** Member @p key as a string; @p def when absent. */
    std::string getString(std::string_view key,
                          std::string_view def = "") const;

    /** Member @p key as an exact unsigned integer; 0 when absent. */
    uint64_t getU64(std::string_view key) const;
};

/** Parse @p text as one JSON value; throws JsonError when it is not
 *  exactly one. */
JsonValue parseJson(std::string_view text);

/** @p s as the contents of a JSON string literal: `"` and `\`
 *  backslash-escaped, newline, tab and carriage return as `\n`, `\t`
 *  and `\r`, every other control character as `\u00XX`. */
std::string jsonEscape(std::string_view s);

/** The number format of every writer: `%.17g`, so parsing it gives
 *  the same double bit for bit; NaN and the infinities as the
 *  reader's literals. */
std::string jsonNumber(double v);

/** True when @p s is exactly one RFC 8259 number (no literals, no
 *  surrounding space). Allocates nothing: the flight recorder calls
 *  it while dumping. */
bool isJsonNumber(std::string_view s);

/** What a JSON-lines reader made of one line. */
enum class JsonLine
{
    Record,  ///< One whole record, read.
    Newer,   ///< A record of a newer schema than this build reads.
    Corrupt, ///< Anything else: torn, malformed or not a record.
};

/** The lines a JSON-lines loader skipped, by 1-based line number. A
 *  blank line holds no record and is neither skipped nor listed. */
struct SkippedLines
{
    std::vector<size_t> corrupt;
    std::vector<size_t> newer;
    size_t lastLine = 0; ///< Number of the file's last non-blank line.

    /** The first corrupt line that is not the file's last non-blank
     *  line, else 0. A torn final line is what a crash mid-append
     *  leaves; a corrupt line before it lost a record. */
    size_t firstCorruptBeforeLast() const;

    /** One `path:line: <why>` message per skipped line, corrupt lines
     *  first. */
    std::vector<std::string> messages(const std::string &path) const;
};

/** Feed each non-blank line of @p path to @p read, in file order, and
 *  note in @p skipped (may be null) each line it does not classify
 *  as a Record. A missing file reads as empty. */
void readJsonLines(const std::string &path,
                   const std::function<JsonLine(const std::string &)> &read,
                   SkippedLines *skipped);

} // namespace bitspec

#endif // BITSPEC_SUPPORT_JSON_H_
