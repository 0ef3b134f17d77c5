/**
 * @file
 * Artifact-store differential guard (the disk-tier analogue of
 * uarch/core_engine_diff_test.cc): for every registered workload
 * under the three misspeculation regimes (baseline compiler, full
 * bitwidth speculation, squeeze without speculation), a System
 * restored from an encode/decode snapshot roundtrip must be
 * observationally identical to the freshly compiled System it was
 * captured from — same return value and output checksum, same
 * ActivityCounters field by field, same cache hierarchy and DRAM
 * statistics, same energy, the same per-region and per-block
 * profiler rows, and the same compile-time stats RunResult
 * republishes. The restored System runs twice so the fast engine's
 * warm block-memo path is covered on the restored program too.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "artifact/snapshot.h"
#include "core/system.h"
#include "obs/profiler.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

struct ObservedRun
{
    RunResult r;
    std::vector<RegionActivity> regions;
    uint64_t unattributedMisspecs = 0;
    std::vector<BlockActivity> blocks;
    uint64_t blocksUnattributed = 0;
};

ObservedRun
runOnce(System &sys, const BlockMap &bmap, const Workload &w,
        uint64_t run_seed)
{
    BlockProfilerSink blocks(bmap);
    RunObservers obs;
    obs.blocks = &blocks;
    ObservedRun out;
    out.r = sys.run(
        [&w, run_seed](Module &m) { w.setInput(m, run_seed); }, {},
        obs);
    out.regions = blocks.regionActivity();
    out.unattributedMisspecs = blocks.unattributedMisspecs();
    out.blocks = blocks.activity();
    out.blocksUnattributed = blocks.unattributed();
    return out;
}

void
expectSameCaches(const CacheStats &a, const CacheStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

void
expectSameRun(const ObservedRun &fresh, const ObservedRun &warm,
              const std::string &what)
{
    EXPECT_EQ(fresh.r.returnValue, warm.r.returnValue) << what;
    EXPECT_EQ(fresh.r.outputChecksum, warm.r.outputChecksum) << what;

    const ActivityCounters &a = fresh.r.counters;
    const ActivityCounters &b = warm.r.counters;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.alu32, b.alu32) << what;
    EXPECT_EQ(a.alu8, b.alu8) << what;
    EXPECT_EQ(a.mulDiv, b.mulDiv) << what;
    EXPECT_EQ(a.rfRead32, b.rfRead32) << what;
    EXPECT_EQ(a.rfWrite32, b.rfWrite32) << what;
    EXPECT_EQ(a.rfRead8, b.rfRead8) << what;
    EXPECT_EQ(a.rfWrite8, b.rfWrite8) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.takenBranches, b.takenBranches) << what;
    EXPECT_EQ(a.calls, b.calls) << what;
    EXPECT_EQ(a.misspeculations, b.misspeculations) << what;
    EXPECT_EQ(a.dynSpillLoads, b.dynSpillLoads) << what;
    EXPECT_EQ(a.dynSpillStores, b.dynSpillStores) << what;
    EXPECT_EQ(a.dynCopies, b.dynCopies) << what;
    EXPECT_EQ(a.outputs, b.outputs) << what;

    expectSameCaches(fresh.r.l1i, warm.r.l1i, what + "/l1i");
    expectSameCaches(fresh.r.l1d, warm.r.l1d, what + "/l1d");
    expectSameCaches(fresh.r.l2, warm.r.l2, what + "/l2");
    EXPECT_EQ(fresh.r.dram.reads, warm.r.dram.reads) << what;
    EXPECT_EQ(fresh.r.dram.writes, warm.r.dram.writes) << what;

    EXPECT_EQ(fresh.r.totalEnergy, warm.r.totalEnergy) << what;
    EXPECT_EQ(fresh.r.epi, warm.r.epi) << what;
    EXPECT_EQ(fresh.r.meanVoltage, warm.r.meanVoltage) << what;

    // Compile-time stats republished per run.
    EXPECT_EQ(fresh.r.squeezeStats.narrowed,
              warm.r.squeezeStats.narrowed)
        << what;
    EXPECT_EQ(fresh.r.squeezeStats.regions, warm.r.squeezeStats.regions)
        << what;
    EXPECT_EQ(fresh.r.squeezeStats.checksDropped,
              warm.r.squeezeStats.checksDropped)
        << what;
    EXPECT_EQ(fresh.r.squeezeStats.lintProvenSafe,
              warm.r.squeezeStats.lintProvenSafe)
        << what;
    EXPECT_EQ(fresh.r.expandStats.inlinedCalls,
              warm.r.expandStats.inlinedCalls)
        << what;
    EXPECT_EQ(fresh.r.expandStats.unrolledLoops,
              warm.r.expandStats.unrolledLoops)
        << what;
    EXPECT_EQ(fresh.r.backendStats.staticInsts,
              warm.r.backendStats.staticInsts)
        << what;
    EXPECT_EQ(fresh.r.backendStats.skeletonInsts,
              warm.r.backendStats.skeletonInsts)
        << what;
    EXPECT_EQ(fresh.r.backendStats.staticSpillLoads,
              warm.r.backendStats.staticSpillLoads)
        << what;

    ASSERT_EQ(fresh.regions.size(), warm.regions.size()) << what;
    for (size_t i = 0; i < fresh.regions.size(); ++i) {
        const RegionActivity &ra = fresh.regions[i];
        const RegionActivity &rb = warm.regions[i];
        const std::string where = what + "/region" + std::to_string(i);
        EXPECT_EQ(ra.entries, rb.entries) << where;
        EXPECT_EQ(ra.misspecs, rb.misspecs) << where;
        EXPECT_EQ(ra.specInsts, rb.specInsts) << where;
        EXPECT_EQ(ra.specCycles, rb.specCycles) << where;
        EXPECT_EQ(ra.skeletonInsts, rb.skeletonInsts) << where;
        EXPECT_EQ(ra.handlerInsts, rb.handlerInsts) << where;
        EXPECT_EQ(ra.handlerCycles, rb.handlerCycles) << where;
    }
    EXPECT_EQ(fresh.unattributedMisspecs, warm.unattributedMisspecs)
        << what;

    ASSERT_EQ(fresh.blocks.size(), warm.blocks.size()) << what;
    for (size_t i = 0; i < fresh.blocks.size(); ++i) {
        const BlockActivity &ba = fresh.blocks[i];
        const BlockActivity &bb = warm.blocks[i];
        const std::string where = what + "/block" + std::to_string(i);
        EXPECT_EQ(ba.entries, bb.entries) << where;
        EXPECT_EQ(ba.insts, bb.insts) << where;
        EXPECT_EQ(ba.cycles, bb.cycles) << where;
        EXPECT_EQ(ba.misspecs, bb.misspecs) << where;
    }
    EXPECT_EQ(fresh.blocksUnattributed, warm.blocksUnattributed)
        << what;
}

void
diffUnderConfig(const Workload &w, const SystemConfig &cfg,
                const std::string &what)
{
    System fresh(w.source, cfg,
                 [&](Module &m) { w.setInput(m, 0); });

    // Capture, push through the full byte encoding (what the store
    // writes to disk), and restore — not just a struct copy.
    artifact::SystemSnapshot snap = fresh.makeSnapshot(what);
    std::vector<uint8_t> bytes = artifact::encodeSnapshot(snap);
    artifact::SystemSnapshot decoded =
        artifact::decodeSnapshot(bytes.data(), bytes.size());
    System warm(decoded, cfg);

    EXPECT_EQ(warm.profiledIrInstructions(),
              fresh.profiledIrInstructions())
        << what;

    // Profiler index maps built from the restored program must
    // partition the flat code identically.
    BlockMap bmapFresh(fresh.program());
    BlockMap bmapWarm(warm.program());

    ObservedRun f = runOnce(fresh, bmapFresh, w, 0);
    ObservedRun cold = runOnce(warm, bmapWarm, w, 0);
    expectSameRun(f, cold, what + "/cold");

    // Restored fast engine with warm block memos, and a different
    // input seed to exercise the restored global images.
    ObservedRun memo = runOnce(warm, bmapWarm, w, 0);
    expectSameRun(f, memo, what + "/memo");

    ObservedRun f1 = runOnce(fresh, bmapFresh, w, 1);
    ObservedRun w1 = runOnce(warm, bmapWarm, w, 1);
    expectSameRun(f1, w1, what + "/seed1");
}

class ArtifactDiff : public ::testing::TestWithParam<std::string>
{};

TEST_P(ArtifactDiff, BaselineConfigMatches)
{
    const Workload &w = getWorkload(GetParam());
    diffUnderConfig(w, SystemConfig::baseline(), w.name + "/baseline");
}

TEST_P(ArtifactDiff, BitspecConfigMatches)
{
    const Workload &w = getWorkload(GetParam());
    diffUnderConfig(w, SystemConfig::bitspec(), w.name + "/bitspec");
}

TEST_P(ArtifactDiff, NoSpeculationConfigMatches)
{
    const Workload &w = getWorkload(GetParam());
    diffUnderConfig(w, SystemConfig::noSpeculation(),
                    w.name + "/nospec");
}

INSTANTIATE_TEST_SUITE_P(
    Mibench, ArtifactDiff,
    ::testing::Values("CRC32", "FFT", "basicmath", "bitcount",
                      "blowfish", "dijkstra", "patricia", "qsort",
                      "rijndael", "sha", "stringsearch", "susan-edges",
                      "susan-corners", "susan-smoothing"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace bitspec
