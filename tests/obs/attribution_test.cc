#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "obs/profiler.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

/** Build a squeezed System for @p w profiled on seed 0. */
System
makeBitspec(const Workload &w)
{
    return System(w.source, SystemConfig::bitspec(),
                  [&w](Module &m) { w.setInput(m, 0); });
}

/** The block site owning flat index @p i. */
const BlockSite &
siteOf(const BlockMap &map, uint32_t i)
{
    return map.sites()[static_cast<size_t>(map.siteAt(i))];
}

/** Sum of the per-region misspeculation counts plus those outside
 *  every region. */
uint64_t
regionMisspecs(const BlockProfilerSink &sink)
{
    uint64_t n = sink.unattributedMisspecs();
    for (const RegionActivity &a : sink.regionActivity())
        n += a.misspecs;
    return n;
}

TEST(Attribution, MapClassifiesSkeletonPerMember)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    BlockMap map(sys.program());

    // Per program: every member index has a skeleton partner and they
    // are equinumerous; handler indices exist iff regions exist.
    size_t members = 0, skeletons = 0, handlers = 0;
    const size_t n = sys.program().flat.size();
    for (uint32_t i = 0; i < n; ++i) {
        const BlockSite &site = siteOf(map, i);
        if (site.region < 0)
            continue;
        if (!site.isRegionMember())
            ++handlers;
        else if (map.isSkeleton(i))
            ++skeletons;
        else
            ++members;
    }
    ASSERT_FALSE(map.regions().empty())
        << "CRC32 under bitspec should create speculative regions";
    EXPECT_EQ(members, skeletons);
    EXPECT_GT(handlers, 0u);

    // Region-carrying indices always resolve to a region; skeleton
    // slots belong to member blocks only.
    for (uint32_t i = 0; i < n; ++i) {
        const BlockSite &site = siteOf(map, i);
        if (site.regionId >= 0) {
            ASSERT_GE(site.region, 0);
            ASSERT_LT(static_cast<size_t>(site.region),
                      map.regions().size());
        } else {
            EXPECT_LT(site.region, 0);
        }
        if (map.isSkeleton(i)) {
            EXPECT_TRUE(site.isRegionMember());
        }
    }
}

TEST(Attribution, SitesCarryProvenance)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    BlockMap map(sys.program());
    std::set<std::pair<std::string, int>> seen;
    for (size_t r = 0; r < map.regions().size(); ++r) {
        const RegionSite &site = map.regions()[r];
        EXPECT_FALSE(site.function.empty());
        EXPECT_GE(site.regionId, 0);
        EXPECT_GT(site.srcLine, 0)
            << site.function << "#" << site.regionId;
        // (function, regionId) is unique program-wide.
        EXPECT_TRUE(
            seen.emplace(site.function, site.regionId).second);
        // The entry index is a member instruction of this region, at
        // the head of its block.
        const BlockSite &entry = siteOf(map, site.entryIndex);
        EXPECT_TRUE(entry.isRegionMember());
        EXPECT_FALSE(map.isSkeleton(site.entryIndex));
        EXPECT_EQ(entry.region, static_cast<int>(r));
        EXPECT_TRUE(map.isBlockHead(site.entryIndex));
    }
}

TEST(Attribution, SinkWithoutMisspecsStaysZero)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    BlockMap map(sys.program());
    BlockProfilerSink sink(map);
    EXPECT_EQ(regionMisspecs(sink), 0u);
    EXPECT_EQ(sink.unattributedMisspecs(), 0u);
    for (const RegionActivity &a : sink.regionActivity()) {
        EXPECT_EQ(a.entries, 0u);
        EXPECT_EQ(a.misspecs, 0u);
    }
}

/** The acceptance invariant: per-region misspeculation counts sum
 *  exactly to the core model's aggregate counter — on every workload
 *  of the suite, on the training seed (no misspecs) and on held-out
 *  seeds (where rare misspeculations actually fire). */
TEST(Attribution, RegionMisspecsSumToCoreCounterAcrossSuite)
{
    uint64_t suite_misspecs = 0;
    for (const Workload &w : mibenchSuite()) {
        System sys = makeBitspec(w);
        BlockMap map(sys.program());
        for (uint64_t seed : {0, 1, 3}) {
            BlockProfilerSink sink(map);
            RunResult r = sys.run(
                [&w, seed](Module &m) { w.setInput(m, seed); },
                {.blocks = &sink});

            EXPECT_EQ(regionMisspecs(sink),
                      r.counters.misspeculations)
                << w.name << " seed " << seed;
            EXPECT_EQ(sink.unattributedMisspecs(), 0u)
                << w.name << " seed " << seed;
            suite_misspecs += regionMisspecs(sink);

            // Attribution must not perturb the run itself.
            RunResult plain = sys.run(
                [&w, seed](Module &m) { w.setInput(m, seed); });
            EXPECT_EQ(plain.outputChecksum, r.outputChecksum)
                << w.name;
            EXPECT_EQ(plain.counters.misspeculations,
                      r.counters.misspeculations)
                << w.name;
            EXPECT_EQ(plain.counters.cycles, r.counters.cycles)
                << w.name;

            // Per-region sanity: a region that misspeculated was
            // entered, and its handler ran at least one instruction
            // per misspec.
            for (const RegionActivity &a : sink.regionActivity()) {
                if (a.misspecs == 0)
                    continue;
                EXPECT_GT(a.entries, 0u) << w.name;
                EXPECT_GE(a.handlerInsts, a.misspecs) << w.name;
            }
        }
    }
    // Held-out seeds must exercise at least one real misspeculation
    // suite-wide, or the invariant above is vacuous.
    EXPECT_GT(suite_misspecs, 0u);
}

TEST(Attribution, ReportRowsMatchSinkAndFormat)
{
    const Workload &w = getWorkload("sha");
    System sys = makeBitspec(w);
    BlockMap map(sys.program());
    BlockProfilerSink sink(map);
    RunResult r = sys.run([&w](Module &m) { w.setInput(m, 0); },
                          {.blocks = &sink});

    System base(w.source, SystemConfig::baseline(),
                [&w](Module &m) { w.setInput(m, 0); });
    RunResult br = base.run([&w](Module &m) { w.setInput(m, 0); });

    RegionReportInputs inputs;
    inputs.energy = SystemConfig::bitspec().energy;
    inputs.totalInstructions = r.counters.instructions;
    inputs.totalEnergyPj = r.totalEnergy;
    inputs.baselineEnergyPj = br.totalEnergy;
    auto rows = buildRegionReport(map, sink, inputs);
    ASSERT_EQ(rows.size(), map.regions().size());

    uint64_t misspecs = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        misspecs += rows[i].activity.misspecs;
        EXPECT_EQ(rows[i].site.regionId, map.regions()[i].regionId);
        EXPECT_DOUBLE_EQ(rows[i].netPj,
                         rows[i].savedPj - rows[i].overheadPj);
        EXPECT_GE(rows[i].misspecRate, 0.0);
    }
    EXPECT_EQ(misspecs, r.counters.misspeculations);

    // sha is lint-clean (see lint_selfcheck_test.cc), so every site
    // must carry a zero-leak verdict and the table renders "clean".
    for (const RegionReportRow &row : rows) {
        EXPECT_EQ(row.site.leakSites, 0);
        EXPECT_EQ(row.site.leaksDischarged, 0);
    }

    std::string table = formatRegionReport(rows, "sha.c");
    EXPECT_NE(table.find("region"), std::string::npos);
    EXPECT_NE(table.find("sha.c:"), std::string::npos);
    EXPECT_NE(table.find("net_pJ"), std::string::npos);
    EXPECT_NE(table.find("sni"), std::string::npos);
    EXPECT_NE(table.find("clean"), std::string::npos);
}

} // namespace
} // namespace bitspec
