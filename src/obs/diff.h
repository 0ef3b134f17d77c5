/**
 * @file
 * bitspec-diff: regression forensics between two run ledgers
 * (obs/ledger.h).
 *
 * The trajectory gate says "a rate dropped"; this answers "which cell,
 * which stage, which region, which block". Two ledgers are joined on
 * the canonical flavour-free cell key — so a ledger written by last
 * week's build joins cell-for-cell with today's — and every telemetry
 * field is classified per cell:
 *
 *   Same      within tolerance (absolute or relative, per-field
 *             overridable),
 *   Improved  cost went down (every ledger field is a cost:
 *             instructions, cycles, misses, picojoules, seconds),
 *   Regressed cost went up beyond tolerance,
 *   Info      informational families (wall./log. by default) that
 *             drift with machine load and never fail a diff,
 *   Diverged  output checksum or return value changed — not a perf
 *             delta but a correctness alarm, reported first.
 *
 * For each regressed cell the drift is then localized down the
 * pipeline: the worst-drifting field family names the *stage*
 * (compile / execute / memory / energy), and when both records carry
 * detail rows the region with the largest misspeculation/handler
 * delta and the block with the largest cycle delta are named — the
 * same region/block identities the attribution and heat reports
 * print, so the forensic trail ends at source coordinates.
 *
 * Emitted as both a human table (formatLedgerDiff) and a machine
 * verdict (ledgerDiffToJson); `bitspec-paper diff A B` drives it from
 * the command line and bench_gate auto-runs it against the
 * rolling-baseline ledger when the trajectory gate trips, both through
 * diffLedgerFiles.
 */

#ifndef BITSPEC_OBS_DIFF_H_
#define BITSPEC_OBS_DIFF_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/ledger.h"

namespace bitspec
{

/** Tolerances and field-family policy for a ledger diff. */
struct DiffOptions
{
    /** |b - a| at or below this is Same regardless of magnitude. */
    double absTol = 0.0;
    /** |b - a| within this percentage of max(|a|, |b|) is Same. */
    double relTolPct = 0.0;
    /** Per-field relative-tolerance overrides (exact field name). */
    std::map<std::string, double> perFieldRelTolPct;
    /** Field-name prefixes reported but never regressed (timing and
     *  log noise by default). */
    std::vector<std::string> infoPrefixes = {"run.wall", "wall.",
                                             "log."};
};

enum class DriftClass
{
    Same,
    Improved,
    Regressed,
    Info,
    Diverged,
};

const char *driftClassName(DriftClass cls);

/** One field's movement between ledger A and ledger B. */
struct FieldDrift
{
    std::string name;
    double a = 0;
    double b = 0;
    double deltaPct = 0; ///< 100 * (b - a) / |a| (0 when a == 0).
    DriftClass cls = DriftClass::Same;
};

/** One joined cell's verdict. */
struct CellDiff
{
    std::string cellKey;
    std::string workload;
    std::string engine;
    std::string policy;
    /** Every non-Same drift, Diverged first, then by |deltaPct|. */
    std::vector<FieldDrift> drifts;
    bool regressed = false;
    bool diverged = false;

    /** @name Localization (filled for regressed/diverged cells) */
    /// @{
    std::string stage;  ///< compile|execute|memory|energy|output.
    std::string region; ///< Worst region delta, source coordinates.
    std::string block;  ///< Worst block delta, source coordinates.
    /// @}
};

/** Whole-diff result. */
struct LedgerDiff
{
    std::vector<CellDiff> cells; ///< Joined cells, worst first.
    std::vector<std::string> onlyA; ///< Cell keys with no B record.
    std::vector<std::string> onlyB; ///< Cell keys with no A record.
    size_t regressedCells = 0;
    size_t divergedCells = 0;
    /** Neither regressed nor diverged, with at least one Improved
     *  drift: an Info drift alone (wall time) is not an improvement. */
    size_t improvedCells = 0;

    bool
    clean() const
    {
        return regressedCells == 0 && divergedCells == 0;
    }
};

/** Join and classify. Matrix-summary records are ignored; duplicate
 *  cell keys keep the first occurrence. */
LedgerDiff diffLedgers(const std::vector<LedgerRecord> &a,
                       const std::vector<LedgerRecord> &b,
                       const DiffOptions &opts = {});

/** Two ledger files joined and classified (diffLedgerFiles). */
struct LedgerFileDiff
{
    size_t recordsA = 0; ///< Records read from the first file.
    size_t recordsB = 0; ///< Records read from the second file.
    LedgerDiff diff;
};

/**
 * Load the ledgers at @p path_a and @p path_b and diff them. Each
 * line a loader skipped (torn, corrupt or of a newer schema) is
 * warned once, prefixed `<tool>:` and naming `path:line`. A side with
 * no records (a missing file reads as empty) is refused: an error
 * names it and the result is nullopt.
 */
std::optional<LedgerFileDiff>
diffLedgerFiles(const std::string &path_a, const std::string &path_b,
                const DiffOptions &opts, const char *tool);

/** Human-readable drift table. @p verbose additionally lists Info
 *  drifts and clean cells. */
std::string formatLedgerDiff(const LedgerDiff &diff,
                             bool verbose = false);

/** Machine verdict as a single JSON object. */
std::string ledgerDiffToJson(const LedgerDiff &diff);

} // namespace bitspec

#endif // BITSPEC_OBS_DIFF_H_
