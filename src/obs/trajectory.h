/**
 * @file
 * Persistent performance trajectory: the bench history is a run
 * ledger (obs/ledger.h) of `trajectory` records, plus a regression
 * gate over it.
 *
 * Every bench_smoke run distils BENCH_micro.json into one ledger
 * record of kind `trajectory` (recordFromBenchJson): its flavour is
 * buildFlavour(), its bench `bench_gate`, and its fields are the key
 * throughput/speedup series plus the record's own facts under
 * `record.`: the host's CPU count, the debug flag and the time.
 * bench_gate appends it to bench/history/BENCH_history.jsonl with a
 * LedgerWriter. The gate then compares the current record against a
 * rolling baseline — the best value of each series over the last
 * `window` comparable records — and fails when a gated series drops
 * beyond its threshold. "Comparable" means the same debug flag and
 * the same host CPU count: debug numbers are tagged at record time and
 * can never become the baseline for release runs (or vice versa), and
 * the parallel speedup.* series scale with the core count.
 *
 * Gated series are the higher-is-better ones, recognised by name
 * prefix: "rate." (instructions/second) and "speedup.". Everything
 * else rides along informationally, except the `record.` fields, which
 * the gate neither lists nor gates. Thresholds are generous by default
 * (shared machines swing); per-series overrides tighten the ones that
 * matter.
 *
 * The history loads with loadLedger, so a corrupt or newer-schema line
 * is skipped and reported by its line number (SkippedLines). Only a
 * torn final line is crash residue, so bench_gate refuses a history
 * with a corrupt line before its last.
 */

#ifndef BITSPEC_OBS_TRAJECTORY_H_
#define BITSPEC_OBS_TRAJECTORY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/ledger.h"

namespace bitspec
{

/** How the repository's own code was built: CMAKE_BUILD_TYPE and
 *  whether NDEBUG was defined. */
struct BuildInfo
{
    std::string buildType;
    bool ndebug = true;

    /** Assertions on or a Debug build type: never comparable with
     *  optimised runs. */
    bool
    debug() const
    {
        return !ndebug || buildType == "Debug";
    }
};

/** This build, as baked in when bitspec_obs was configured and
 *  compiled. google-benchmark's `library_build_type` context field
 *  is not it: that describes how libbenchmark itself was built. */
const BuildInfo &thisBuild();

/**
 * Names the producing build in ledger records: `git describe
 * --always --dirty` and thisBuild().buildType, joined by '-' ("nogit"
 * outside a checkout). Both are baked in when bitspec_obs is
 * configured, so the flavour names the tree as it was at configure
 * time: an edit rebuilt without re-running CMake keeps the old name.
 */
const std::string &buildFlavour();

/** True when @p name is a higher-is-better gated series. */
bool isGatedSeries(const std::string &name);

/**
 * Counter @p counter of the first `benchmarks` entry named @p bench
 * in the google-benchmark JSON @p json_text, read from that entry
 * alone, so an entry without the counter (an errored run) reads as
 * absent rather than as a later entry's value. nullopt when the
 * entry or its counter is missing; throws JsonError when the text is
 * not JSON or the counter not a number.
 */
std::optional<double> benchCounter(const std::string &json_text,
                                   const std::string &bench,
                                   const std::string &counter);

/**
 * Distil a BENCH_micro.json (google-benchmark output with
 * `bitspec-paper smoke`'s record spliced in as its `smoke` member)
 * into a `trajectory` record: `record.debug_build` from @p build (the
 * JSON's library_build_type is ignored), `record.host_cpus` from the
 * context's num_cpus, rate.* series from the `benchmarks` entries'
 * counters, and the smoke record's rate.obs_disabled_ir_per_s,
 * obs.trace_overhead_pct and speedup.* series. A rate or speedup
 * counts only when it is > 0. Flavour, bench and `record.unix_time`
 * are left for the caller. Throws JsonError when the text is not
 * JSON, a value read has the wrong kind, or the `smoke` member is not
 * a ledger record this build reads.
 */
LedgerRecord recordFromBenchJson(const std::string &json_text,
                                 const BuildInfo &build = thisBuild());

/** Gate thresholds. A gated series fails when it drops more than its
 *  threshold percent below the rolling baseline. */
struct GateOptions
{
    size_t window = 5;          ///< Baseline = best of the last N.
    double defaultDropPct = 25; ///< Shared machines swing; generous.
    std::map<std::string, double> perSeriesDropPct;
};

/** Per-series gate verdict. */
struct SeriesVerdict
{
    std::string name;
    double current = 0;
    double baseline = 0; ///< 0 when no comparable history exists.
    double deltaPct = 0; ///< (current - baseline) / baseline * 100.
    bool gated = false;  ///< Informational series never fail.
    bool pass = true;
};

/** Whole-run gate result. */
struct GateResult
{
    bool pass = true;
    size_t baselineRuns = 0; ///< Comparable records considered.
    std::vector<SeriesVerdict> verdicts;
};

/**
 * Compare @p current against @p history, one verdict per field of
 * @p current outside `record.`. Baseline per series: the maximum value
 * over the last opts.window `trajectory` records whose
 * `record.debug_build` and `record.host_cpus` match @p current (other
 * kinds, older records, mismatched builds and other hosts are ignored;
 * an unknown count only matches unknown). A gated series with no
 * baseline passes — fresh histories must not fail their first run.
 */
GateResult checkAgainstHistory(const LedgerRecord &current,
                               const std::vector<LedgerRecord> &history,
                               const GateOptions &opts = {});

/** Render the verdicts as an aligned table. */
std::string formatGateResult(const GateResult &result);

} // namespace bitspec

#endif // BITSPEC_OBS_TRAJECTORY_H_
