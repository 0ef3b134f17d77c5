#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/system.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/error.h"
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

TEST(BlockMap, IsTotalPartition)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    BlockMap map(sys.program());

    ASSERT_FALSE(map.sites().empty());
    ASSERT_EQ(map.numIndices(), sys.program().flat.size());

    // Every flat index belongs to exactly one site, and static sizes
    // add back up to the whole program.
    std::vector<uint64_t> per_site(map.sites().size(), 0);
    for (uint32_t i = 0; i < map.numIndices(); ++i) {
        int s = map.siteAt(i);
        ASSERT_GE(s, 0) << "unclaimed index " << i;
        ASSERT_LT(static_cast<size_t>(s), map.sites().size());
        ++per_site[static_cast<size_t>(s)];
    }
    uint64_t static_total = 0;
    for (size_t s = 0; s < map.sites().size(); ++s) {
        EXPECT_EQ(per_site[s], map.sites()[s].staticInsts)
            << map.sites()[s].function << ":" << map.sites()[s].block;
        static_total += map.sites()[s].staticInsts;
    }
    EXPECT_EQ(static_total, map.numIndices());

    // Exactly one head per non-empty site, at its start index (empty
    // blocks emit no instructions and own no index at all).
    size_t heads = 0, nonempty = 0;
    for (uint32_t i = 0; i < map.numIndices(); ++i)
        heads += map.isBlockHead(i);
    for (const BlockSite &site : map.sites()) {
        if (site.staticInsts == 0)
            continue;
        ++nonempty;
        EXPECT_TRUE(map.isBlockHead(site.startIndex))
            << site.function << ":" << site.block;
    }
    EXPECT_EQ(heads, nonempty);

    // The synthetic _start site holds exactly the linker's stub.
    for (uint32_t i = 0; i < map.numIndices(); ++i) {
        const BlockSite &site =
            map.sites()[static_cast<size_t>(map.siteAt(i))];
        EXPECT_EQ(site.function == "_start",
                  i < MachProgram::kStartStubInsts)
            << "index " << i;
    }
}

TEST(BlockMap, PanicsOnAnIndexNoBlockClaims)
{
    // A function one instruction shorter than its code leaves that
    // instruction to no block: the map must name it rather than file
    // it under _start.
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    MachProgram prog = sys.program();
    MachFunction &mf = prog.funcs.front();
    ASSERT_GT(mf.codeSize, 0u);
    --mf.codeSize;
    const uint32_t orphan = prog.indexOf(mf.baseAddr) + mf.codeSize;
    try {
        BlockMap map(prog);
        ADD_FAILURE() << "index " << orphan << " was filed under site "
                      << map.sites()[static_cast<size_t>(
                                         map.siteAt(orphan))]
                             .function;
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "flat index " + std::to_string(orphan) + " "),
                  std::string::npos)
            << e.what();
    }
}

/** The acceptance invariant: per-block sums equal the core's
 *  aggregate ActivityCounters exactly — instructions, cycles and
 *  misspeculations — on every workload of the suite, on a held-out
 *  seed where speculation actually misses. */
TEST(BlockProfiler, SumsReconcileWithCoreCountersAcrossSuite)
{
    uint64_t suite_misspecs = 0;
    for (const Workload &w : mibenchSuite()) {
        System sys = makeBitspec(w);
        BlockMap map(sys.program());
        BlockProfilerSink sink(map);
        RunObservers obs;
        obs.blocks = &sink;
        RunResult r =
            sys.run([&w](Module &m) { w.setInput(m, 1); }, obs);

        EXPECT_EQ(sink.totalInsts(), r.counters.instructions) << w.name;
        EXPECT_EQ(sink.totalCycles(), r.counters.cycles) << w.name;
        EXPECT_EQ(sink.totalMisspecs(), r.counters.misspeculations)
            << w.name;
        EXPECT_EQ(sink.unattributed(), 0u) << w.name;
        suite_misspecs += sink.totalMisspecs();

        // Per-block sanity: activity implies entry, and a block's
        // retired instructions imply charged cycles.
        for (const BlockActivity &a : sink.activity()) {
            if (a.insts || a.misspecs) {
                EXPECT_GT(a.entries, 0u) << w.name;
            }
            if (a.insts) {
                EXPECT_GT(a.cycles, 0u) << w.name;
            }
        }
    }
    // Held-out seeds must exercise at least one real misspeculation
    // suite-wide, or the misspec column of the invariant is vacuous.
    EXPECT_GT(suite_misspecs, 0u);
}

TEST(BlockProfiler, DoesNotPerturbTheRun)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    BlockMap map(sys.program());
    BlockProfilerSink sink(map);
    RunObservers obs;
    obs.blocks = &sink;
    RunResult profiled =
        sys.run([&w](Module &m) { w.setInput(m, 1); }, obs);
    RunResult plain = sys.run([&w](Module &m) { w.setInput(m, 1); });

    EXPECT_EQ(plain.outputChecksum, profiled.outputChecksum);
    EXPECT_EQ(plain.counters.instructions,
              profiled.counters.instructions);
    EXPECT_EQ(plain.counters.cycles, profiled.counters.cycles);
    EXPECT_EQ(plain.counters.misspeculations,
              profiled.counters.misspeculations);
}

TEST(BlockProfiler, HeatReportSplitsEnergyExactly)
{
    const Workload &w = getWorkload("sha");
    System sys = makeBitspec(w);
    BlockMap map(sys.program());
    BlockProfilerSink sink(map);
    RunObservers obs;
    obs.blocks = &sink;
    RunResult r = sys.run([&w](Module &m) { w.setInput(m, 1); }, obs);

    HeatReportInputs inputs;
    inputs.energy = SystemConfig::bitspec().energy;
    inputs.totalEnergyPj = r.totalEnergy;
    auto rows = buildHeatReport(map, sink, inputs);
    ASSERT_EQ(rows.size(), map.sites().size());

    // Rows are sorted by cycles descending and the energy split sums
    // back to the run total.
    double energy = 0, cycles_pct = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i) {
            EXPECT_LE(rows[i].activity.cycles,
                      rows[i - 1].activity.cycles);
        }
        energy += rows[i].energyPj;
        cycles_pct += rows[i].cyclesPct;
    }
    EXPECT_NEAR(energy, r.totalEnergy, 1e-6 * r.totalEnergy);
    EXPECT_NEAR(cycles_pct, 100.0, 1e-9);

    std::string listing = formatHeatListing(rows, "sha.c", 10);
    EXPECT_NE(listing.find("cycles"), std::string::npos);
    EXPECT_NE(listing.find("energy_pJ"), std::string::npos);
    EXPECT_NE(listing.find("sha"), std::string::npos);

    // Folded stacks carry one weighted line per executed block.
    std::string folded = foldedStacks(rows, "sha.c");
    size_t lines = 0, executed = 0;
    for (char c : folded)
        lines += c == '\n';
    for (const HeatRow &row : rows)
        executed += row.activity.cycles > 0;
    EXPECT_EQ(lines, executed);
    EXPECT_NE(folded.find(";"), std::string::npos);
}

/** Counter-lane samples of the buffered trace, by lane name. */
std::map<std::string, std::vector<double>>
counterSamples()
{
    std::map<std::string, std::vector<double>> out;
    for (const trace::Event &e : trace::snapshot())
        if (e.phase == 'C')
            out[e.name].push_back(std::stod(e.args.at(0).second));
    return out;
}

TEST(CounterTracks, TracedRunReplaysLikeAnUntracedOne)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    auto input = [&w](Module &m) { w.setInput(m, 1); };

    CoreRunStats plain_core, traced_core;
    trace::setEnabled(false);
    const RunResult plain = sys.run(input, {.core = &plain_core});
    trace::setEnabled(true);
    trace::reset();
    const RunResult traced = sys.run(input, {.core = &traced_core});
    trace::setEnabled(false);
    trace::reset();

    EXPECT_TRUE(traced == plain);
    EXPECT_GT(traced_core.replayedRuns, 0u);
    EXPECT_LT(traced_core.slowInsts, traced.counters.instructions);
    EXPECT_EQ(traced_core.memos, plain_core.memos);
    EXPECT_EQ(traced_core.replayedRuns, plain_core.replayedRuns);
    EXPECT_EQ(traced_core.slowInsts, plain_core.slowInsts);
}

TEST(CounterTracks, OneSamplePerLanePerTracedRun)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);

    trace::setEnabled(true);
    trace::reset();
    const RunResult r = sys.run([&w](Module &m) { w.setInput(m, 1); });
    const auto samples = counterSamples();
    trace::setEnabled(false);
    trace::reset();

    ASSERT_EQ(samples.size(), 3u);
    for (const auto &[lane, values] : samples)
        EXPECT_EQ(values.size(), 1u) << lane;
    const ActivityCounters &c = r.counters;
    EXPECT_DOUBLE_EQ(samples.at("core.ipc").at(0),
                     static_cast<double>(c.instructions) /
                         static_cast<double>(c.cycles));
    EXPECT_DOUBLE_EQ(samples.at("core.misspec_per_kinst").at(0),
                     1000.0 * static_cast<double>(c.misspeculations) /
                         static_cast<double>(c.instructions));
    EXPECT_DOUBLE_EQ(samples.at("core.l1d_hit_pct").at(0),
                     100.0 *
                         static_cast<double>(r.l1d.accesses -
                                             r.l1d.misses) /
                         static_cast<double>(r.l1d.accesses));
}

TEST(CounterTracks, SilentWhenTracingDisabled)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);

    trace::setEnabled(false);
    trace::reset();
    sys.run([&w](Module &m) { w.setInput(m, 1); });
    EXPECT_EQ(trace::eventCount(), 0u);
}

} // namespace
} // namespace bitspec
