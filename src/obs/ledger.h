/**
 * @file
 * The run ledger: schema-versioned JSONL provenance + telemetry
 * records, one per experiment cell (DESIGN.md "Run ledger &
 * forensics").
 *
 * The bench_gate trajectory (obs/trajectory.h) answers "did a rate
 * regress"; the ledger answers "what exactly produced the numbers" so
 * the diff engine (obs/diff.h) can answer "where". Every record
 * carries two halves:
 *
 *  - Provenance: the producing build flavour (git describe + build
 *    type, obs/trajectory.h buildFlavour()), bench binary,
 *    canonicalized SystemConfig key and its 128-bit hash, whether the
 *    cell's System was compiled for it or served from the runner's
 *    in-memory cache, all BITSPEC_* env knobs in effect, and every
 *    seed. A record is a recipe: any cell can be re-run from its
 *    ledger line alone.
 *  - Telemetry: the complete observable surface of the run — every
 *    ActivityCounters field, cache/DRAM stats, the energy ledger,
 *    wall time, log-event counts, squeeze/expand/backend stats, and
 *    (in detail mode) per-region misspeculation attribution plus the
 *    top-K per-block heat rows with exact whole-run sums for
 *    reconciliation against the aggregate counters.
 *
 * Writing is crash-safe: each record is formatted completely, then
 * appended with one O_APPEND write(2), so concurrent writers (worker
 * threads, even multiple processes sharing BITSPEC_LEDGER) never
 * interleave mid-record and a crash can only tear the final line —
 * which the loader, like obs/trajectory's, skips instead of failing
 * on.
 *
 * Knobs: BITSPEC_LEDGER=<path> enables the global writer;
 * BITSPEC_LEDGER_DETAIL=1 additionally attaches the block profiler
 * to every cell for its region and heat rows (documented cost: replay
 * stays on, but feeds the sink every replayed instruction).
 */

#ifndef BITSPEC_OBS_LEDGER_H_
#define BITSPEC_OBS_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "energy/model.h"
#include "support/json.h"
#include "uarch/cache.h"
#include "uarch/counters.h"

namespace bitspec
{

/** Current record schema. Bump on incompatible change; the loader
 *  skips records with a newer schema than it understands. */
constexpr int kLedgerSchemaVersion = 1;

/** One named scalar in a record's flat telemetry map. */
struct LedgerField
{
    std::string name;
    double value = 0;
};

/** Per-region attribution row (detail mode; obs/profiler). */
struct LedgerRegionRow
{
    std::string function;
    int regionId = -1;
    int srcLine = 0;
    uint64_t entries = 0;
    uint64_t misspecs = 0;
    uint64_t specInsts = 0;
    uint64_t handlerInsts = 0;
    uint64_t handlerCycles = 0;
};

/** Per-block heat row (detail mode; obs/profiler, top-K by cycles). */
struct LedgerHeatRow
{
    std::string function;
    std::string block;
    int regionId = -1;
    int srcLine = 0;
    uint64_t entries = 0;
    uint64_t insts = 0;
    uint64_t cycles = 0;
    uint64_t misspecs = 0;
};

/** One ledger line: a cell record or a matrix summary record. */
struct LedgerRecord
{
    int schemaVersion = kLedgerSchemaVersion;
    /** "cell" = one experiment cell; "matrix" = per-matrix summary
     *  (cell count + wall-time percentiles). */
    std::string kind = "cell";

    /** @name Provenance */
    /// @{
    /** buildFlavour(). Records written while the runner had an
     *  on-disk tier append the snapshot schema hash as a third
     *  part. */
    std::string flavour;
    std::string bench;       ///< Producing binary (argv[0] basename).
    std::string workload;    ///< Workload name ("" for matrix kind).
    /** Flavour-free canonical join key — stable across builds, so two
     *  ledgers from different commits still join cell-for-cell. */
    std::string cellKey;
    /** Canonical System key; older records append the flavour. */
    std::string systemKey;
    /** 128-bit system key hash, hex (JSON "artifact_key"). */
    std::string artifactKey;
    /** "compile" | "memory"; records written while the runner had
     *  an on-disk tier may also say "disk". */
    std::string cacheSource;
    /** Core that ran the cell: always "fast" (FastCore), kept so
     *  schema-1 records stay readable both ways. */
    std::string engine;
    std::string policy;      ///< Misspeculation policy name.
    uint64_t profileSeed = 0;
    uint64_t runSeed = 0;
    uint64_t policySeed = 0;
    /** 64-bit output checksum, hex (kept out of `fields` — a double
     *  cannot hold 64 bits exactly). */
    std::string outputChecksum;
    /** Every BITSPEC_* env var set in the producing process, sorted
     *  by name. */
    std::vector<std::pair<std::string, std::string>> env;
    /// @}

    /** Flat telemetry map, sorted by name on serialization. */
    std::vector<LedgerField> fields;
    std::vector<LedgerRegionRow> regions;
    std::vector<LedgerHeatRow> heat;

    /** Value of @p name, or nullopt when absent. */
    std::optional<double> field(const std::string &name) const;

    /** Insert-or-overwrite @p name. */
    void setField(const std::string &name, double value);
};

/** Fill the run-observable telemetry fields (counters.*, cache.*,
 *  dram.*, energy.*, run.*) from one finished run. */
void fillRunTelemetry(LedgerRecord &rec, const ActivityCounters &c,
                      const CacheStats &l1i, const CacheStats &l1d,
                      const CacheStats &l2, const DramStats &dram,
                      const EnergyBreakdown &energy, double total_pj,
                      double epi_pj, double mean_v,
                      uint32_t return_value, uint64_t output_checksum,
                      double wall_sec);

/** Every BITSPEC_* variable of this process, sorted by name. */
std::vector<std::pair<std::string, std::string>> captureBitspecEnv();

/** Serialize as one JSON line (no trailing newline). */
std::string toJsonLine(const LedgerRecord &rec);

/** Parse one ledger line; nullopt for blank, torn, malformed and
 *  newer-schema lines (the loader skips them): a line that is not
 *  exactly one JSON record is never read in part. */
std::optional<LedgerRecord> parseLedgerLine(const std::string &line);

/** All parseable records of @p path in file order; empty when the
 *  file is missing. The lines skipped go to @p skipped when given. */
std::vector<LedgerRecord> loadLedger(const std::string &path,
                                     SkippedLines *skipped = nullptr);

/**
 * Schema validation: "" when @p rec is well-formed, else the first
 * violation. Checks provenance completeness, required telemetry
 * fields, that the energy breakdown sums exactly to the model total,
 * and — when detail rows are present — that region misspecs and the
 * recorded heat totals reconcile exactly with ActivityCounters
 * (ledger_selfcheck runs this over a live matrix).
 */
std::string validateLedgerRecord(const LedgerRecord &rec);

/**
 * Crash-safe JSONL appender. Thread-safe without locking: append()
 * issues a single O_APPEND write(2) per record, so records from any
 * number of threads or processes land whole and in arrival order.
 */
class LedgerWriter
{
  public:
    /** Opens (creating parent directories) for append. */
    explicit LedgerWriter(const std::string &path);
    ~LedgerWriter();

    LedgerWriter(const LedgerWriter &) = delete;
    LedgerWriter &operator=(const LedgerWriter &) = delete;

    bool ok() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }
    uint64_t recordsWritten() const;

    /** Append @p rec as one line; false on I/O error. */
    bool append(const LedgerRecord &rec);

    /**
     * The process-wide writer configured by BITSPEC_LEDGER, or
     * nullptr when the knob is unset/empty and no override is
     * installed. First call reads the env.
     */
    static LedgerWriter *global();

    /** Replace the global writer (tests, benches); nullptr disables
     *  ledger emission regardless of the env. */
    static void setGlobal(std::unique_ptr<LedgerWriter> writer);

    /** BITSPEC_LEDGER_DETAIL (or the setDetail override): attach the
     *  block profiler (region and heat rows) to every ledgered cell. */
    static bool detailEnabled();
    static void setDetail(bool on);

  private:
    std::string path_;
    int fd_ = -1;
    std::atomic<uint64_t> written_{0};
};

} // namespace bitspec

#endif // BITSPEC_OBS_LEDGER_H_
