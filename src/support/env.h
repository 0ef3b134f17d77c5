/**
 * @file
 * Centralized environment-knob parsing.
 *
 * Every BITSPEC_* environment variable goes through these typed
 * accessors so the knobs behave uniformly: an unset variable yields
 * the documented default, and a malformed value is a hard fatal()
 * instead of a silent fallback (a typo like BITSPEC_JOBS=8x used to
 * quietly run with hardware concurrency).
 *
 * Knob inventory (kept here so there is one place to look):
 *  - BITSPEC_JOBS          worker threads for the experiment engine
 *  - BITSPEC_VERIFY_EACH   per-stage pipeline verification (bool)
 *  - BITSPEC_TRACE         path for the Chrome trace-event export
 *  - BITSPEC_METRICS       path for the metrics JSON-lines export
 *  - BITSPEC_LEDGER        path for run-ledger JSONL append
 *                          (obs/ledger.h; unset/empty = disabled)
 *  - BITSPEC_LEDGER_DETAIL embed per-region + heat rows per ledgered
 *                          cell (bool; costs the replay fast path)
 *  - BITSPEC_FLIGHTREC     crash flight-recorder dump directory
 *                          (obs/flightrec.h; unset/empty = disabled)
 *  - BITSPEC_LOG           stderr log threshold:
 *                          error|warn|info|debug (default warn)
 */

#ifndef BITSPEC_SUPPORT_ENV_H_
#define BITSPEC_SUPPORT_ENV_H_

#include <optional>
#include <string>

namespace bitspec::env
{

/** Raw value of @p name, or nullopt when unset. An empty string is a
 *  set-but-empty value, not nullopt. */
std::optional<std::string> raw(const char *name);

/** String knob: the variable's value, or @p def when unset. */
std::string getString(const char *name, const std::string &def = "");

/**
 * Boolean knob. Unset -> @p def. Accepted spellings (case-sensitive):
 * "1"/"true"/"on" -> true; "0"/"false"/"off"/"" -> false. Anything
 * else is a fatal() configuration error.
 */
bool getBool(const char *name, bool def);

/**
 * Unsigned-integer knob constrained to [lo, hi]. Unset -> @p def.
 * Non-numeric text, trailing junk, or an out-of-range value is a
 * fatal() configuration error.
 */
unsigned getUnsigned(const char *name, unsigned def, unsigned lo,
                     unsigned hi);

} // namespace bitspec::env

#endif // BITSPEC_SUPPORT_ENV_H_
