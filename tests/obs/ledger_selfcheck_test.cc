/**
 * @file
 * Live end-to-end selfcheck of the run ledger: a real 2x2 experiment
 * matrix (config x run seed) is executed with the global writer
 * attached in detail mode, then every emitted record is re-loaded,
 * schema-validated, and reconciled field-for-field against the
 * RunResults the runner returned. This is the fast `ledger_selfcheck`
 * CI target (ctest -L obs-ledger).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/ledger.h"
#include "obs/trajectory.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

struct TempLedger
{
    TempLedger()
    {
        path = (std::filesystem::temp_directory_path() /
                ("bitspec_ledger_sc_" +
                 std::to_string(static_cast<unsigned long long>(
                     reinterpret_cast<uintptr_t>(this))) +
                 ".jsonl"))
                   .string();
        std::remove(path.c_str());
    }
    ~TempLedger() { std::remove(path.c_str()); }
    std::string path;
};

/** Detaches the global writer and detail override on exit so no other
 *  test in this binary inherits ledger emission. */
struct GlobalLedgerGuard
{
    ~GlobalLedgerGuard()
    {
        LedgerWriter::setGlobal(nullptr);
        LedgerWriter::setDetail(false);
    }
};

TEST(LedgerSelfcheck, LiveMatrixValidatesAndReconciles)
{
    TempLedger tmp;
    GlobalLedgerGuard guard;
    LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(tmp.path));
    LedgerWriter::setDetail(true);

    const Workload &w = getWorkload("CRC32");
    std::vector<ExperimentCell> cells;
    for (const SystemConfig &cfg :
         {SystemConfig::baseline(), SystemConfig::bitspec()})
        for (uint64_t run_seed : {uint64_t(0), uint64_t(1)})
            cells.push_back(ExperimentCell(&w, cfg, 0, run_seed));

    ExperimentRunner runner;
    std::vector<RunResult> results = runner.run(cells);
    LedgerWriter::setGlobal(nullptr); // Flush point: fd closed.

    std::vector<LedgerRecord> recs = loadLedger(tmp.path);
    ASSERT_EQ(recs.size(), cells.size() + 1); // 4 cells + 1 matrix.

    size_t matrix_records = 0;
    for (const LedgerRecord &rec : recs) {
        EXPECT_EQ(validateLedgerRecord(rec), "")
            << toJsonLine(rec).substr(0, 200);
        if (rec.kind == "matrix") {
            ++matrix_records;
            EXPECT_EQ(*rec.field("matrix.cells"),
                      static_cast<double>(cells.size()));
            EXPECT_LE(*rec.field("wall.p50_sec"),
                      *rec.field("wall.p95_sec"));
            EXPECT_LE(*rec.field("wall.p95_sec"),
                      *rec.field("wall.p99_sec"));
        }
    }
    EXPECT_EQ(matrix_records, 1u);

    // Reconcile each cell record with the RunResult the runner handed
    // back, joining on the canonical cell key (workers may append in
    // any order).
    for (size_t i = 0; i < cells.size(); ++i) {
        const std::string key = ExperimentRunner::cellKey(cells[i]);
        const LedgerRecord *rec = nullptr;
        for (const LedgerRecord &r : recs)
            if (r.kind == "cell" && r.cellKey == key)
                rec = &r;
        ASSERT_NE(rec, nullptr) << key;

        const RunResult &r = results[i];
        EXPECT_EQ(*rec->field("counters.instructions"),
                  static_cast<double>(r.counters.instructions));
        EXPECT_EQ(*rec->field("counters.cycles"),
                  static_cast<double>(r.counters.cycles));
        EXPECT_EQ(*rec->field("counters.misspeculations"),
                  static_cast<double>(r.counters.misspeculations));
        EXPECT_EQ(*rec->field("energy.total_pj"), r.totalEnergy);
        EXPECT_EQ(*rec->field("energy.epi_pj"), r.epi);
        EXPECT_EQ(*rec->field("run.return"),
                  static_cast<double>(r.returnValue));
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          r.outputChecksum));
        EXPECT_EQ(rec->outputChecksum, hex);

        // Provenance: the workload ran from a compile or the in-memory
        // cache, the flavour names this build, and every seed is
        // recorded.
        EXPECT_EQ(rec->workload, w.name);
        EXPECT_TRUE(rec->cacheSource == "compile" ||
                    rec->cacheSource == "memory")
            << rec->cacheSource;
        EXPECT_EQ(rec->runSeed, cells[i].runSeed);
        EXPECT_EQ(rec->flavour, buildFlavour());
        const std::string type_suffix = "-" + thisBuild().buildType;
        ASSERT_GE(rec->flavour.size(), type_suffix.size());
        EXPECT_EQ(rec->flavour.substr(rec->flavour.size() -
                                      type_suffix.size()),
                  type_suffix)
            << rec->flavour;
        EXPECT_FALSE(rec->artifactKey.empty());
        // The record names the System its cell ran on.
        EXPECT_EQ(rec->systemKey,
                  ExperimentRunner::systemKey(w, cells[i].config,
                                              cells[i].profileSeed));

        // Detail mode: the validator already proved the region/heat
        // sums reconcile exactly with ActivityCounters; spot-check
        // the rows exist whenever the run executed instructions.
        if (r.counters.instructions > 0) {
            EXPECT_FALSE(rec->heat.empty());
        }
    }
}

TEST(LedgerSelfcheck, RecordsNameTheRunnersLabel)
{
    TempLedger tmp;
    GlobalLedgerGuard guard;
    LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(tmp.path));

    const Workload &w = getWorkload("CRC32");
    const std::vector<ExperimentCell> cells = {
        ExperimentCell(&w, SystemConfig::baseline(), 0, 0)};
    ExperimentRunner labelled(1);
    labelled.setLedgerLabel("bench-a/fig01");
    labelled.run(cells);
    labelled.setLedgerLabel("bench-a/fig02");
    labelled.run(cells);
    ExperimentRunner unlabelled(1);
    unlabelled.run(cells);
    LedgerWriter::setGlobal(nullptr); // Flush point: fd closed.

    // Each run() appends one cell and one matrix record, in order.
    std::vector<LedgerRecord> recs = loadLedger(tmp.path);
    ASSERT_EQ(recs.size(), 6u);
    const char *want[] = {"bench-a/fig01", "bench-a/fig02",
                          "test_ledger"};
    for (size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].kind, i % 2 ? "matrix" : "cell") << i;
        EXPECT_EQ(recs[i].bench, want[i / 2]) << recs[i].kind << " " << i;
    }
}

} // namespace
} // namespace bitspec
