#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "obs/attribution.h"
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

TEST(Attribution, MapClassifiesSkeletonPerMember)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    AttributionMap map(sys.program());

    // Per program: every Member index has a Skeleton partner and they
    // are equinumerous; handler indices exist iff regions exist.
    size_t members = 0, skeletons = 0, handlers = 0;
    const size_t n = sys.program().flat.size();
    for (uint32_t i = 0; i < n; ++i) {
        switch (map.roleAt(i)) {
          case IndexRole::Member: ++members; break;
          case IndexRole::Skeleton: ++skeletons; break;
          case IndexRole::Handler: ++handlers; break;
          case IndexRole::None: break;
        }
    }
    ASSERT_FALSE(map.sites().empty())
        << "CRC32 under bitspec should create speculative regions";
    EXPECT_EQ(members, skeletons);
    EXPECT_GT(handlers, 0u);

    // Role-carrying indices always resolve to a site.
    for (uint32_t i = 0; i < n; ++i) {
        if (map.roleAt(i) != IndexRole::None) {
            ASSERT_GE(map.siteAt(i), 0);
            ASSERT_LT(static_cast<size_t>(map.siteAt(i)),
                      map.sites().size());
        } else {
            EXPECT_LT(map.siteAt(i), 0);
        }
    }
}

TEST(Attribution, SitesCarryProvenance)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    AttributionMap map(sys.program());
    std::set<std::pair<std::string, int>> seen;
    for (const RegionSite &site : map.sites()) {
        EXPECT_FALSE(site.function.empty());
        EXPECT_GE(site.regionId, 0);
        EXPECT_GT(site.srcLine, 0)
            << site.function << "#" << site.regionId;
        // (function, regionId) is unique program-wide.
        EXPECT_TRUE(
            seen.emplace(site.function, site.regionId).second);
        // The entry index is a member instruction of this region.
        EXPECT_EQ(map.roleAt(site.entryIndex), IndexRole::Member);
        EXPECT_EQ(map.entrySiteAt(site.entryIndex),
                  map.siteAt(site.entryIndex));
    }
}

TEST(Attribution, SinkWithoutMisspecsStaysZero)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    AttributionMap map(sys.program());
    AttributionSink sink(map);
    EXPECT_EQ(sink.totalMisspecs(), 0u);
    EXPECT_EQ(sink.unattributedMisspecs(), 0u);
    for (const RegionActivity &a : sink.activity()) {
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
        AttributionMap map(sys.program());
        for (uint64_t seed : {0, 1, 3}) {
            AttributionSink sink(map);
            RunResult r = sys.run(
                [&w, seed](Module &m) { w.setInput(m, seed); }, {},
                {.attribution = &sink});

            EXPECT_EQ(sink.totalMisspecs(),
                      r.counters.misspeculations)
                << w.name << " seed " << seed;
            EXPECT_EQ(sink.unattributedMisspecs(), 0u)
                << w.name << " seed " << seed;
            suite_misspecs += sink.totalMisspecs();

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
            for (const RegionActivity &a : sink.activity()) {
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
    AttributionMap map(sys.program());
    AttributionSink sink(map);
    RunResult r = sys.run([&w](Module &m) { w.setInput(m, 0); }, {},
                          {.attribution = &sink});

    System base(w.source, SystemConfig::baseline(),
                [&w](Module &m) { w.setInput(m, 0); });
    RunResult br = base.run([&w](Module &m) { w.setInput(m, 0); });

    RegionReportInputs inputs;
    inputs.energy = sys.config().energy;
    inputs.totalInstructions = r.counters.instructions;
    inputs.totalEnergyPj = r.totalEnergy;
    inputs.baselineEnergyPj = br.totalEnergy;
    auto rows = buildRegionReport(map, sink, inputs);
    ASSERT_EQ(rows.size(), map.sites().size());

    uint64_t misspecs = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        misspecs += rows[i].activity.misspecs;
        EXPECT_EQ(rows[i].site.regionId, map.sites()[i].regionId);
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
