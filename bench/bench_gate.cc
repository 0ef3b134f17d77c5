/**
 * @file
 * Perf-trajectory gate: distils a BENCH_micro.json into one run-ledger
 * record of kind `trajectory` (obs/trajectory.h), compares it against
 * the rolling baseline in the history file, appends the record, and
 * exits non-zero on regression.
 *
 * Usage:
 *   bench_gate <BENCH_micro.json> <history.jsonl>
 *              [--check-only] [--window N] [--drop-pct X]
 *              [--ledger <run.jsonl>] [--ledger-baseline <prev.jsonl>]
 *
 * `--window` takes an integer >= 1 and `--drop-pct` a finite number
 * >= 0, each parsed whole; any other value, or a flag without one,
 * exits 2 naming the flag before any file is read.
 *
 * The history is a run ledger: it loads with loadLedger, only its
 * `trajectory` records count, and the record is appended with a
 * LedgerWriter, one O_APPEND write like every ledger line. It is
 * appended even when the gate fails — a regression is exactly the run
 * the history must remember — unless --check-only is given. A BENCH
 * file that is not JSON exits 2, naming the byte offset, and records
 * nothing. So does a history with a corrupt line before its last,
 * naming `path:line`: that line lost a record, and gating against the
 * rest would gate against a shorter history than the file holds. A
 * torn final line (what a crash mid-append leaves) and newer-schema
 * lines are skipped with a warning naming each. Runs from debug
 * builds are tagged and only ever compared against other debug runs.
 *
 * When the gate trips and both ledger paths are given, the failure is
 * auto-forensicated: the run ledger is diffed against the baseline
 * ledger (obs/diff.h) and the drift table — localized to stage,
 * region and block — is printed below the gate verdict. The diff
 * never changes the exit status; it explains it, after a warning
 * naming each ledger line it skipped.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "obs/diff.h"
#include "obs/ledger.h"
#include "obs/trajectory.h"
#include "support/json.h"
#include "support/log.h"

using namespace bitspec;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <BENCH_micro.json> <history.jsonl> "
                 "[--check-only] [--window N] [--drop-pct X] "
                 "[--ledger <run.jsonl>] "
                 "[--ledger-baseline <prev.jsonl>]\n",
                 argv0);
    return 2;
}

/** @p text parsed whole as an integer >= 1 (--window). */
std::optional<size_t>
parseWindow(const char *text)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt; // strtoull would take a sign or a blank.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < 1 ||
        v > std::numeric_limits<size_t>::max())
        return std::nullopt;
    return static_cast<size_t>(v);
}

/** @p text parsed whole as a finite number >= 0 (--drop-pct). */
std::optional<double>
parseDropPct(const char *text)
{
    if (std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt; // strtod would skip it.
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0)
        return std::nullopt;
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench_path, history_path;
    std::string ledger_path, ledger_baseline_path;
    bool check_only = false;
    GateOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg == "--window" || arg == "--drop-pct") && i + 1 == argc) {
            log::error("bench_gate: %s needs a value", arg.c_str());
            return 2;
        }
        if (arg == "--check-only") {
            check_only = true;
        } else if (arg == "--window") {
            const char *value = argv[++i];
            const std::optional<size_t> window = parseWindow(value);
            if (!window) {
                log::error("bench_gate: --window '%s': want an integer "
                           ">= 1",
                           value);
                return 2;
            }
            opts.window = *window;
        } else if (arg == "--drop-pct") {
            const char *value = argv[++i];
            const std::optional<double> pct = parseDropPct(value);
            if (!pct) {
                log::error("bench_gate: --drop-pct '%s': want a finite "
                           "number >= 0",
                           value);
                return 2;
            }
            opts.defaultDropPct = *pct;
        } else if (arg == "--ledger" && i + 1 < argc) {
            ledger_path = argv[++i];
        } else if (arg == "--ledger-baseline" && i + 1 < argc) {
            ledger_baseline_path = argv[++i];
        } else if (bench_path.empty()) {
            bench_path = arg;
        } else if (history_path.empty()) {
            history_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (bench_path.empty() || history_path.empty())
        return usage(argv[0]);

    std::ifstream in(bench_path);
    if (!in) {
        log::error("bench_gate: cannot read %s", bench_path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();

    LedgerRecord rec;
    try {
        rec = recordFromBenchJson(buf.str());
    } catch (const JsonError &e) {
        log::error("bench_gate: %s: %s", bench_path.c_str(), e.what());
        return 2;
    }
    rec.flavour = buildFlavour();
    rec.bench = "bench_gate";
    rec.setField("record.unix_time",
                 static_cast<double>(std::time(nullptr)));
    if (thisBuild().debug())
        log::warn("bench_gate: DEBUG-BUILD record (flavour %s); "
                  "gating only against other debug runs",
                  rec.flavour.c_str());

    SkippedLines skipped;
    std::vector<LedgerRecord> history = loadLedger(history_path, &skipped);
    if (size_t line = skipped.firstCorruptBeforeLast()) {
        log::error("bench_gate: %s:%zu: corrupt history line; only a "
                   "torn final line is skipped",
                   history_path.c_str(), line);
        return 2;
    }
    for (const std::string &m : skipped.messages(history_path))
        log::warn("bench_gate: %s", m.c_str());
    GateResult result = checkAgainstHistory(rec, history, opts);
    if (result.verdicts.empty()) {
        log::error("bench_gate: no recognisable series in %s",
                   bench_path.c_str());
        return 2;
    }
    std::printf("bench_gate: %s vs %zu comparable run(s) in %s\n",
                rec.flavour.c_str(), result.baselineRuns,
                history_path.c_str());
    std::printf("%s", formatGateResult(result).c_str());

    // Gate tripped: explain it with the ledger forensics when both
    // the run's ledger and a baseline ledger are at hand.
    if (!result.pass && !ledger_path.empty() &&
        !ledger_baseline_path.empty()) {
        if (auto forensics = diffLedgerFiles(ledger_baseline_path,
                                             ledger_path, {},
                                             "bench_gate")) {
            std::printf("\nledger forensics: %s (baseline) vs %s\n",
                        ledger_baseline_path.c_str(),
                        ledger_path.c_str());
            std::printf("%s",
                        formatLedgerDiff(forensics->diff).c_str());
        }
    }

    if (!check_only) {
        if (!LedgerWriter(history_path).append(rec)) {
            log::error("bench_gate: cannot append to %s",
                       history_path.c_str());
            return 2;
        }
        const auto runs =
            std::count_if(history.begin(), history.end(),
                          [](const LedgerRecord &r) {
                              return r.kind == "trajectory";
                          });
        std::printf("recorded -> %s (%td run(s) total)\n",
                    history_path.c_str(), runs + 1);
    }
    return result.pass ? 0 : 1;
}
