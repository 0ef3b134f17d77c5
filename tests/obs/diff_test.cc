#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/diff.h"

namespace bitspec
{
namespace
{

/** A minimal joined-cell record; fields are added per test. */
LedgerRecord
makeCell(const std::string &key, const std::string &workload = "w")
{
    LedgerRecord rec;
    rec.kind = "cell";
    rec.flavour = "f";
    rec.bench = "b";
    rec.workload = workload;
    rec.cellKey = key;
    rec.systemKey = "sk";
    rec.artifactKey = "ak";
    rec.cacheSource = "compile";
    rec.engine = "fast";
    rec.policy = "hardware";
    rec.outputChecksum = "0000000000000001";
    rec.setField("counters.instructions", 1000);
    rec.setField("counters.cycles", 1500);
    rec.setField("energy.total_pj", 12.0);
    rec.setField("run.return", 42);
    rec.setField("run.wall_sec", 0.5);
    return rec;
}

const FieldDrift *
findDrift(const CellDiff &cell, const std::string &name)
{
    for (const FieldDrift &d : cell.drifts)
        if (d.name == name)
            return &d;
    return nullptr;
}

TEST(Diff, IdenticalLedgersAreClean)
{
    std::vector<LedgerRecord> a = {makeCell("k1"), makeCell("k2")};
    LedgerDiff diff = diffLedgers(a, a);
    EXPECT_TRUE(diff.clean());
    EXPECT_EQ(diff.regressedCells, 0u);
    EXPECT_EQ(diff.divergedCells, 0u);
    ASSERT_EQ(diff.cells.size(), 2u);
    for (const CellDiff &c : diff.cells) {
        EXPECT_FALSE(c.regressed);
        EXPECT_TRUE(c.drifts.empty());
    }
    EXPECT_TRUE(diff.onlyA.empty());
    EXPECT_TRUE(diff.onlyB.empty());
}

TEST(Diff, RegressionClassifiedWithStage)
{
    std::vector<LedgerRecord> a = {makeCell("k1")};
    std::vector<LedgerRecord> b = {makeCell("k1")};
    b[0].setField("counters.cycles", 1800); // +20% = worse.
    LedgerDiff diff = diffLedgers(a, b);
    EXPECT_FALSE(diff.clean());
    EXPECT_EQ(diff.regressedCells, 1u);
    ASSERT_EQ(diff.cells.size(), 1u);
    const CellDiff &cell = diff.cells[0];
    EXPECT_TRUE(cell.regressed);
    EXPECT_EQ(cell.stage, "execute"); // counters.* = execute stage.
    const FieldDrift *d = findDrift(cell, "counters.cycles");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->cls, DriftClass::Regressed);
    EXPECT_NEAR(d->deltaPct, 20.0, 1e-9);
}

TEST(Diff, ImprovementIsCleanButReported)
{
    std::vector<LedgerRecord> a = {makeCell("k1")};
    std::vector<LedgerRecord> b = {makeCell("k1")};
    b[0].setField("energy.total_pj", 10.0); // Down = better.
    LedgerDiff diff = diffLedgers(a, b);
    EXPECT_TRUE(diff.clean());
    EXPECT_EQ(diff.improvedCells, 1u);
    const FieldDrift *d =
        findDrift(diff.cells[0], "energy.total_pj");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->cls, DriftClass::Improved);
}

TEST(Diff, TolerancesSuppressNoise)
{
    std::vector<LedgerRecord> a = {makeCell("k1")};
    std::vector<LedgerRecord> b = {makeCell("k1")};
    b[0].setField("counters.cycles", 1503); // +0.2%.
    EXPECT_FALSE(diffLedgers(a, b).clean()); // Zero tolerance.

    DiffOptions rel;
    rel.relTolPct = 0.5;
    EXPECT_TRUE(diffLedgers(a, b, rel).clean());

    DiffOptions abs;
    abs.absTol = 5.0;
    EXPECT_TRUE(diffLedgers(a, b, abs).clean());

    DiffOptions per_field;
    per_field.perFieldRelTolPct["counters.cycles"] = 1.0;
    EXPECT_TRUE(diffLedgers(a, b, per_field).clean());
}

TEST(Diff, WallTimeIsInformational)
{
    std::vector<LedgerRecord> a = {makeCell("k1")};
    std::vector<LedgerRecord> b = {makeCell("k1")};
    b[0].setField("run.wall_sec", 5.0); // 10x slower wall clock.
    LedgerDiff diff = diffLedgers(a, b);
    EXPECT_TRUE(diff.clean()); // Timing drifts never fail a diff.
    const FieldDrift *d = findDrift(diff.cells[0], "run.wall_sec");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->cls, DriftClass::Info);
    EXPECT_EQ(diff.improvedCells, 0u); // Nor do they count as gains.
}

TEST(Diff, ServedSimulationIsNoDrift)
{
    // A parent ledger (no sim_source) against one whose cell was
    // served a simulation: the provenance member neither gates nor
    // counts as drift.
    std::vector<LedgerRecord> a = {makeCell("k1"), makeCell("k2")};
    std::vector<LedgerRecord> b = a;
    b[0].simSource = "memory";
    b[1].simSource = "simulate";
    LedgerDiff diff = diffLedgers(a, b);
    EXPECT_TRUE(diff.clean());
    EXPECT_EQ(diff.improvedCells, 0u);
    ASSERT_EQ(diff.cells.size(), 2u);
    for (const CellDiff &c : diff.cells)
        EXPECT_TRUE(c.drifts.empty()) << c.cellKey;
}

TEST(Diff, ChecksumChangeDiverges)
{
    std::vector<LedgerRecord> a = {makeCell("k1")};
    std::vector<LedgerRecord> b = {makeCell("k1")};
    b[0].outputChecksum = "0000000000000002";
    LedgerDiff diff = diffLedgers(a, b);
    EXPECT_FALSE(diff.clean());
    EXPECT_EQ(diff.divergedCells, 1u);
    EXPECT_TRUE(diff.cells[0].diverged);
    EXPECT_EQ(diff.cells[0].stage, "output");
}

TEST(Diff, UnjoinedKeysListed)
{
    std::vector<LedgerRecord> a = {makeCell("k1"), makeCell("gone")};
    std::vector<LedgerRecord> b = {makeCell("k1"), makeCell("new")};
    LedgerDiff diff = diffLedgers(a, b);
    ASSERT_EQ(diff.onlyA.size(), 1u);
    EXPECT_EQ(diff.onlyA[0], "w gone"); // workload + cell key.
    ASSERT_EQ(diff.onlyB.size(), 1u);
    EXPECT_EQ(diff.onlyB[0], "w new");
}

TEST(Diff, MatrixRecordsIgnored)
{
    LedgerRecord matrix;
    matrix.kind = "matrix";
    matrix.flavour = "f";
    matrix.bench = "b";
    matrix.setField("matrix.cells", 4);
    std::vector<LedgerRecord> a = {makeCell("k1"), matrix};
    std::vector<LedgerRecord> b = {makeCell("k1")};
    LedgerDiff diff = diffLedgers(a, b);
    EXPECT_EQ(diff.cells.size(), 1u);
    EXPECT_TRUE(diff.onlyA.empty());
}

/** The forensic payoff: a regression localizes to the region whose
 *  misspeculations grew most and the block whose cycles grew most. */
TEST(Diff, RegressionLocalizesToRegionAndBlock)
{
    auto with_detail = [](uint64_t hot_misspecs,
                          uint64_t hot_cycles) {
        LedgerRecord rec = makeCell("k1");
        LedgerRegionRow quiet;
        quiet.function = "main";
        quiet.regionId = 1;
        quiet.srcLine = 5;
        quiet.misspecs = 2;
        quiet.handlerCycles = 10;
        rec.regions.push_back(quiet);
        LedgerRegionRow hot;
        hot.function = "crc32";
        hot.regionId = 3;
        hot.srcLine = 42;
        hot.misspecs = hot_misspecs;
        hot.handlerCycles = 10 * hot_misspecs;
        rec.regions.push_back(hot);

        LedgerHeatRow cold;
        cold.function = "main";
        cold.block = "bb1";
        cold.srcLine = 5;
        cold.cycles = 100;
        rec.heat.push_back(cold);
        LedgerHeatRow warm;
        warm.function = "crc32";
        warm.block = "bb9";
        warm.srcLine = 42;
        warm.cycles = hot_cycles;
        rec.heat.push_back(warm);
        return rec;
    };

    std::vector<LedgerRecord> a = {with_detail(2, 100)};
    std::vector<LedgerRecord> b = {with_detail(50, 900)};
    b[0].setField("counters.cycles", 2500); // Trip the gate.
    LedgerDiff diff = diffLedgers(a, b);
    ASSERT_EQ(diff.cells.size(), 1u);
    const CellDiff &cell = diff.cells[0];
    ASSERT_TRUE(cell.regressed);
    // The quiet region/block did not move; the hot ones did.
    EXPECT_NE(cell.region.find("crc32"), std::string::npos)
        << cell.region;
    EXPECT_NE(cell.region.find("42"), std::string::npos)
        << cell.region;
    EXPECT_NE(cell.block.find("bb9"), std::string::npos) << cell.block;
}

TEST(Diff, FormatAndJsonCarryTheVerdict)
{
    std::vector<LedgerRecord> a = {makeCell("k1")};
    std::vector<LedgerRecord> b = {makeCell("k1")};
    b[0].setField("counters.cycles", 1800);
    LedgerDiff diff = diffLedgers(a, b);
    const std::string table = formatLedgerDiff(diff);
    EXPECT_NE(table.find("counters.cycles"), std::string::npos);
    const std::string json = ledgerDiffToJson(diff);
    EXPECT_NE(json.find("\"regressed_cells\":1"), std::string::npos)
        << json;
}

} // namespace
} // namespace bitspec
