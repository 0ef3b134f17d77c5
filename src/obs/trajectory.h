/**
 * @file
 * Persistent performance trajectory: a schema-versioned JSON-lines
 * history of bench_smoke runs plus a regression gate over it.
 *
 * Every bench_smoke run distils BENCH_micro.json into one
 * TrajectoryRecord (git sha, the repository's own build type and
 * debug flag, the key throughput/speedup series) and appends it to
 * bench/history/BENCH_history.jsonl. The gate then compares the
 * current record against a rolling baseline — the best value of each
 * series over the last `window` comparable records — and fails when a
 * gated series drops beyond its threshold. "Comparable" means the
 * same debug flag and the same host CPU count: debug numbers are
 * tagged at record time and can never become the baseline for
 * release runs (or vice versa), and the parallel speedup.* series
 * scale with the core count.
 *
 * Gated series are the higher-is-better ones, recognised by name
 * prefix: "rate." (instructions/second) and "speedup.". Everything
 * else rides along informationally. Thresholds are generous by
 * default (shared machines swing); per-series overrides tighten the
 * ones that matter.
 *
 * The file format is deliberately line-oriented and append-only so
 * the history survives concurrent writers and partial writes: a
 * corrupt or unknown-schema line is skipped on load and reported by
 * its line number (SkippedLines). Only a torn final line is crash
 * residue, so bench_gate refuses a history with a corrupt line before
 * its last.
 */

#ifndef BITSPEC_OBS_TRAJECTORY_H_
#define BITSPEC_OBS_TRAJECTORY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/json.h"

namespace bitspec
{

/** Current on-disk record schema. Bump on incompatible change; the
 *  loader skips records with a newer schema than it understands. */
constexpr int kTrajectorySchemaVersion = 1;

/** One (name, value) measurement in a record. */
struct TrajectorySeries
{
    std::string name;
    double value = 0;
};

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

/** One bench run distilled for the history file. */
struct TrajectoryRecord
{
    int schemaVersion = kTrajectorySchemaVersion;
    std::string gitSha = "unknown";
    std::string buildType; ///< BuildInfo::buildType of the run.
    std::string timestamp; ///< ISO-8601 UTC; informational only.
    bool debugBuild = false;
    /** CPUs of the host that ran the bench; 0 = unknown (records
     *  written before the field existed). */
    unsigned hostCpus = 0;
    /** Sorted by name (toJsonLine sorts; parse preserves). */
    std::vector<TrajectorySeries> series;

    /** Value of @p name, or nullopt when absent. */
    std::optional<double> value(const std::string &name) const;
};

/** True when @p name is a higher-is-better gated series. */
bool isGatedSeries(const std::string &name);

/** Serialize as one JSON line (no trailing newline). */
std::string toJsonLine(const TrajectoryRecord &rec);

/** Parse one history line; nullopt for blank, torn, malformed and
 *  newer-schema lines (the loader skips them): a line that is not
 *  exactly one JSON record is never read in part. */
std::optional<TrajectoryRecord> parseJsonLine(const std::string &line);

/** All parseable records of @p path in file order; empty when the
 *  file is missing. The lines skipped go to @p skipped when given. */
std::vector<TrajectoryRecord> loadHistory(const std::string &path,
                                          SkippedLines *skipped = nullptr);

/** Append @p rec to @p path (created if missing); false on I/O
 *  error. */
bool appendHistory(const std::string &path,
                   const TrajectoryRecord &rec);

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
 * Distil a BENCH_micro.json (google-benchmark output with the
 * experiment_smoke sections spliced in) into a record: build type and
 * debug flag from @p build (the JSON's library_build_type is
 * ignored), host CPUs from the context's num_cpus, rate.* series
 * from the `benchmarks` entries' counters and the `observability`
 * object's members, speedup.* from the `experiment_engine.grids`
 * entries. Sha/timestamp are left for the caller. Throws JsonError
 * when the text is not JSON or a value read has the wrong kind.
 */
TrajectoryRecord recordFromBenchJson(const std::string &json_text,
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
 * Compare @p current against @p history. Baseline per series: the
 * maximum value over the last opts.window records whose debugBuild
 * flag and hostCpus match @p current (older records, mismatched
 * builds and other hosts are ignored; an unknown count only matches
 * unknown). A gated series with no baseline passes — fresh histories
 * must not fail their first run.
 */
GateResult checkAgainstHistory(const TrajectoryRecord &current,
                               const std::vector<TrajectoryRecord> &history,
                               const GateOptions &opts = {});

/** Render the verdicts as an aligned table. */
std::string formatGateResult(const GateResult &result);

} // namespace bitspec

#endif // BITSPEC_OBS_TRAJECTORY_H_
