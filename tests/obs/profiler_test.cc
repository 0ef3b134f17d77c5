#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "obs/profiler.h"
#include "obs/trace.h"
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

    // The linker stub is covered by the synthetic _start site.
    ASSERT_GE(map.siteAt(0), 0);
    EXPECT_EQ(map.sites()[static_cast<size_t>(map.siteAt(0))].function,
              "_start");
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
        RunResult r = sys.run(
            [&w](Module &m) { w.setInput(m, 1); }, {}, obs);

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
        sys.run([&w](Module &m) { w.setInput(m, 1); }, {}, obs);
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
    RunResult r =
        sys.run([&w](Module &m) { w.setInput(m, 1); }, {}, obs);

    HeatReportInputs inputs;
    inputs.energy = sys.config().energy;
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

/** Interpreter-side reconciliation: decoded-engine per-block sums
 *  equal InterpStats on every workload x misspeculation policy (the
 *  policies are interpreter-level; the core's misspeculation is
 *  data-driven). */
TEST(BlockProfiler, InterpreterSumsReconcileAcrossSuiteAndPolicies)
{
    uint64_t suite_misspecs = 0;
    for (const Workload &w : mibenchSuite()) {
        // Squeeze via System so the module carries real SpecRegions.
        System sys = makeBitspec(w);
        for (MisspecPolicy policy :
             {MisspecPolicy::Hardware, MisspecPolicy::ForceFirst,
              MisspecPolicy::Random}) {
            std::unique_ptr<Module> m = cloneModule(sys.module());
            w.setInput(*m, 1);
            Interpreter in(*m);
            in.setMisspecPolicy(policy);
            in.setRandomSeed(7);
            in.setBlockProfile(true);
            in.run("main");

            uint64_t insts = 0, misspecs = 0, entries = 0;
            for (const auto &e : in.blockProfile()) {
                EXPECT_NE(e.function, nullptr) << w.name;
                EXPECT_FALSE(e.blockName.empty()) << w.name;
                insts += e.insts;
                misspecs += e.misspecs;
                entries += e.entries;
            }
            EXPECT_EQ(insts, in.stats().steps)
                << w.name << " policy "
                << static_cast<int>(policy);
            EXPECT_EQ(misspecs, in.stats().misspeculations)
                << w.name << " policy "
                << static_cast<int>(policy);
            EXPECT_GT(entries, 0u) << w.name;
            suite_misspecs += misspecs;
        }
    }
    // The forcing policies guarantee real misspeculations.
    EXPECT_GT(suite_misspecs, 0u);
}

TEST(BlockProfiler, InterpreterProfileOffRecordsNothing)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);
    std::unique_ptr<Module> m = cloneModule(sys.module());
    w.setInput(*m, 1);
    Interpreter in(*m);
    in.run("main");
    EXPECT_TRUE(in.blockProfile().empty());
}

TEST(CounterTracks, EmitWindowedSamplesWhenTracing)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);

    trace::setEnabled(true);
    trace::reset();
    CounterTrackEmitter tracks(4096);
    RunObservers obs;
    obs.tracks = &tracks;
    RunResult r =
        sys.run([&w](Module &m) { w.setInput(m, 1); }, {}, obs);
    trace::setEnabled(false);

    ASSERT_GT(r.counters.instructions, 4096u);
    // One sample per full window plus the finish() flush.
    EXPECT_GE(tracks.samplesEmitted(),
              r.counters.instructions / 4096);
    // Three counter tracks per sample land in the trace buffer.
    EXPECT_GE(trace::eventCount(), 3 * tracks.samplesEmitted());
    trace::reset();
}

TEST(CounterTracks, SilentWhenTracingDisabled)
{
    const Workload &w = getWorkload("CRC32");
    System sys = makeBitspec(w);

    trace::setEnabled(false);
    trace::reset();
    CounterTrackEmitter tracks(4096);
    RunObservers obs;
    obs.tracks = &tracks;
    sys.run([&w](Module &m) { w.setInput(m, 1); }, {}, obs);
    EXPECT_EQ(tracks.samplesEmitted(), 0u);
    EXPECT_EQ(trace::eventCount(), 0u);
}

} // namespace
} // namespace bitspec
