/**
 * @file
 * Error handling for the BitSpec library.
 *
 * Two failure modes, mirroring the gem5 convention:
 *  - fatal(): user-visible error (bad input program, bad configuration).
 *  - panic(): internal invariant violation (a BitSpec bug).
 *
 * Both throw exceptions so library users can recover; the distinction is
 * carried in the exception type.
 */

#ifndef BITSPEC_SUPPORT_ERROR_H_
#define BITSPEC_SUPPORT_ERROR_H_

#include <sstream>
#include <stdexcept>
#include <string>

namespace bitspec
{

/** Error caused by user input: bad source program, bad configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg)
    {}
};

/** Error caused by an internal invariant violation (a BitSpec bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error("panic: " + msg)
    {}
};

/** Throw a FatalError with the given message. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

/** Throw a PanicError with the given message. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

/** Panic unless @p cond holds. Used for internal invariants. A
 *  literal message binds here and becomes a string only when the
 *  assertion fails, so a holding assertion allocates nothing. */
inline void
bsAssert(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

/** As above, for a built message (`"..." + name`). The argument is
 *  built before the call, so it costs its allocation on every call
 *  whether or not @p cond holds: on per-step and per-call paths write
 *  `if (!cond) panic(...)` instead. */
inline void
bsAssert(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

} // namespace bitspec

#endif // BITSPEC_SUPPORT_ERROR_H_
