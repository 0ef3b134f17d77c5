/**
 * @file
 * Perf-trajectory gate: distils a BENCH_micro.json into one
 * TrajectoryRecord, compares it against the rolling baseline in the
 * history file, appends the record, and exits non-zero on regression.
 *
 * Usage:
 *   bench_gate <BENCH_micro.json> <history.jsonl>
 *              [--check-only] [--window N] [--drop-pct X]
 *              [--ledger <run.jsonl>] [--ledger-baseline <prev.jsonl>]
 *
 * The record is appended even when the gate fails — a regression is
 * exactly the run the history must remember — unless --check-only is
 * given. A BENCH file that is not JSON exits 2, naming the byte
 * offset, and records nothing. So does a history with a corrupt line
 * before its last, naming `path:line`: that line lost a record, and
 * gating against the rest would gate against a shorter history than
 * the file holds. A torn final line (what a crash mid-append leaves)
 * and newer-schema lines are skipped with a warning naming each. Runs
 * from debug builds are tagged and only ever compared against other
 * debug runs (see obs/trajectory.h).
 *
 * When the gate trips and both ledger paths are given, the failure is
 * auto-forensicated: the run ledger is diffed against the baseline
 * ledger (obs/diff.h) and the drift table — localized to stage,
 * region and block — is printed below the gate verdict. The diff
 * never changes the exit status; it explains it, after a warning
 * naming each ledger line it skipped.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/diff.h"
#include "obs/trajectory.h"
#include "support/json.h"
#include "support/log.h"

using namespace bitspec;

namespace
{

/** `git rev-parse --short HEAD`, or "unknown" outside a checkout. */
std::string
gitShortSha()
{
    FILE *p = popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {};
    size_t n = fread(buf, 1, sizeof buf - 1, p);
    pclose(p);
    std::string sha(buf, n);
    while (!sha.empty() &&
           (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

std::string
utcTimestamp()
{
    std::time_t now = std::chrono::system_clock::to_time_t(
        std::chrono::system_clock::now());
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** Warn once per line a loader skipped. */
void
reportSkips(const std::string &path, const SkippedLines &skipped)
{
    for (const std::string &m : skipped.messages(path))
        log::warn("bench_gate: %s", m.c_str());
}

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
        if (arg == "--check-only") {
            check_only = true;
        } else if (arg == "--window" && i + 1 < argc) {
            opts.window =
                static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--drop-pct" && i + 1 < argc) {
            opts.defaultDropPct = std::strtod(argv[++i], nullptr);
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

    TrajectoryRecord rec;
    try {
        rec = recordFromBenchJson(buf.str());
    } catch (const JsonError &e) {
        log::error("bench_gate: %s: %s", bench_path.c_str(), e.what());
        return 2;
    }
    rec.gitSha = gitShortSha();
    rec.timestamp = utcTimestamp();
    if (rec.debugBuild)
        log::warn("bench_gate: DEBUG-BUILD record (build_type=%s); "
                  "gating only against other debug runs",
                  rec.buildType.c_str());
    if (rec.series.empty()) {
        log::error("bench_gate: no recognisable series in %s",
                   bench_path.c_str());
        return 2;
    }

    SkippedLines skipped;
    std::vector<TrajectoryRecord> history =
        loadHistory(history_path, &skipped);
    if (size_t line = skipped.firstCorruptBeforeLast()) {
        log::error("bench_gate: %s:%zu: corrupt history line; only a "
                   "torn final line is skipped",
                   history_path.c_str(), line);
        return 2;
    }
    reportSkips(history_path, skipped);
    GateResult result = checkAgainstHistory(rec, history, opts);
    std::printf("bench_gate: %s @ %s vs %zu comparable run(s) in %s\n",
                rec.gitSha.c_str(), rec.timestamp.c_str(),
                result.baselineRuns, history_path.c_str());
    std::printf("%s", formatGateResult(result).c_str());

    // Gate tripped: explain it with the ledger forensics when both
    // the run's ledger and a baseline ledger are at hand.
    if (!result.pass && !ledger_path.empty() &&
        !ledger_baseline_path.empty()) {
        SkippedLines base_skipped, cur_skipped;
        std::vector<LedgerRecord> base =
            loadLedger(ledger_baseline_path, &base_skipped);
        std::vector<LedgerRecord> cur =
            loadLedger(ledger_path, &cur_skipped);
        reportSkips(ledger_baseline_path, base_skipped);
        reportSkips(ledger_path, cur_skipped);
        if (base.empty() || cur.empty()) {
            log::warn("bench_gate: cannot diff ledgers (%s: %zu "
                      "records, %s: %zu records)",
                      ledger_baseline_path.c_str(), base.size(),
                      ledger_path.c_str(), cur.size());
        } else {
            std::printf("\nledger forensics: %s (baseline) vs %s\n",
                        ledger_baseline_path.c_str(),
                        ledger_path.c_str());
            std::printf("%s",
                        formatLedgerDiff(diffLedgers(base, cur))
                            .c_str());
        }
    }

    if (!check_only) {
        if (!appendHistory(history_path, rec)) {
            log::error("bench_gate: cannot append to %s",
                       history_path.c_str());
            return 2;
        }
        std::printf("recorded -> %s (%zu run(s) total)\n",
                    history_path.c_str(), history.size() + 1);
    }
    return result.pass ? 0 : 1;
}
