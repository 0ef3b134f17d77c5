/**
 * @file
 * Targeted unit tests of the core: memo-guard divergence (hot block ->
 * cache miss or misspeculation -> hot again), memo invalidation,
 * persistence across reset() and fuel accounting under replay.
 *
 * Whole-workload observations are pinned by
 * tests/core/run_freeze_test.cc; these tests construct small kernels
 * where the divergence paths are guaranteed to fire, check replay
 * against the cycle-accurate slow path (a run with a counter-track
 * emitter attached never replays) and assert both paths ran via
 * replayedRuns()/slowInsts().
 */

#include <gtest/gtest.h>

#include "backend/compiler.h"
#include "frontend/irgen.h"
#include "obs/profiler.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
#include "transform/squeezer.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"

namespace bitspec
{
namespace
{

/** Run @p core over @p args entirely on its slow path. */
uint32_t
runSlowPath(FastCore &core, const std::vector<uint32_t> &args)
{
    CounterTrackEmitter tracks;
    core.setCounterTracks(&tracks);
    uint32_t ret = core.run(args);
    core.setCounterTracks(nullptr);
    EXPECT_EQ(core.slowInsts(), core.counters().instructions);
    return ret;
}

void
expectSameObservables(const FastCore &slow, const FastCore &fast)
{
    const ActivityCounters &a = slow.counters();
    const ActivityCounters &b = fast.counters();
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.alu32, b.alu32);
    EXPECT_EQ(a.alu8, b.alu8);
    EXPECT_EQ(a.mulDiv, b.mulDiv);
    EXPECT_EQ(a.rfRead32, b.rfRead32);
    EXPECT_EQ(a.rfWrite32, b.rfWrite32);
    EXPECT_EQ(a.rfRead8, b.rfRead8);
    EXPECT_EQ(a.rfWrite8, b.rfWrite8);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.misspeculations, b.misspeculations);
    EXPECT_EQ(a.dynSpillLoads, b.dynSpillLoads);
    EXPECT_EQ(a.dynSpillStores, b.dynSpillStores);
    EXPECT_EQ(a.dynCopies, b.dynCopies);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(slow.outputChecksum(), fast.outputChecksum());

    const MemoryHierarchy &ma = slow.memory();
    const MemoryHierarchy &mb = fast.memory();
    EXPECT_EQ(ma.l1i().accesses, mb.l1i().accesses);
    EXPECT_EQ(ma.l1i().misses, mb.l1i().misses);
    EXPECT_EQ(ma.l1d().accesses, mb.l1d().accesses);
    EXPECT_EQ(ma.l1d().misses, mb.l1d().misses);
    EXPECT_EQ(ma.l1d().writebacks, mb.l1d().writebacks);
    EXPECT_EQ(ma.l2().accesses, mb.l2().accesses);
    EXPECT_EQ(ma.l2().misses, mb.l2().misses);
    EXPECT_EQ(ma.l2().writebacks, mb.l2().writebacks);
    EXPECT_EQ(ma.dram().reads, mb.dram().reads);
    EXPECT_EQ(ma.dram().writes, mb.dram().writes);
}

TEST(FastCore, HotMissHotStreamingLoadsStayExact)
{
    // 16 KiB array vs the 8 KiB L1D: every pass re-misses each line,
    // so the inner-loop block cycles hot -> D-miss divergence -> hot
    // again continuously. The memo must replay the hit iterations and
    // fall out exactly at each miss.
    const char *src = R"(
        u32 data[4096];
        u32 main(u32 passes) {
            u32 h = 0;
            for (u32 p = 0; p < passes; p++)
                for (u32 i = 0; i < 4096; i++)
                    h = h * 31 + data[i];
            return h;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);

    PredecodedProgram pre(cp.program);
    FastCore slow(pre, *mod);
    uint32_t want = runSlowPath(slow, {3});

    FastCore fast(pre, *mod);
    EXPECT_EQ(fast.run({3}), want);
    expectSameObservables(slow, fast);

    // Both engine paths must actually have fired.
    EXPECT_GT(fast.replayedRuns(), 0u);
    EXPECT_GT(fast.slowInsts(), 0u);
    // Streaming re-misses across passes: well beyond one pass' worth
    // of cold misses (4096 u32 / 8 per line = 512).
    EXPECT_GT(fast.memory().l1d().misses, 1000u);
}

TEST(FastCore, HotMisspecHotStaysExact)
{
    // Trained on a short run, the accumulator squeezes to 8 bits;
    // the long run overflows it repeatedly, so the hot loop block
    // cycles replay -> misspeculation divergence -> replay.
    const char *src = R"(
        u8 data[64] = "skeletons for every speculative instruction";
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 i = 0; i < n; i++)
                h = (h + data[i % 44]) % 199;
            return h;
        }
    )";
    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod, "main", {4});
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);

    PredecodedProgram pre(cp.program);
    FastCore slow(pre, *mod);
    uint32_t want = runSlowPath(slow, {44});

    FastCore fast(pre, *mod);
    EXPECT_EQ(fast.run({44}), want);
    expectSameObservables(slow, fast);

    EXPECT_GT(fast.counters().misspeculations, 0u);
    EXPECT_GT(fast.replayedRuns(), 0u);
}

TEST(FastCore, ResetPreservesMemosAndStaysDeterministic)
{
    const char *src = R"(
        u32 data[256];
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 r = 0; r < n; r++)
                for (u32 i = 0; i < 256; i++)
                    h = h * 31 + (data[i] ^ (h >> 5));
            return h;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore fast(pre, *mod);

    uint32_t first = fast.run({8});
    ActivityCounters cold = fast.counters();
    size_t memos = fast.memoCount();
    uint64_t replays = fast.replayedRuns();
    EXPECT_GT(memos, 0u);
    EXPECT_GT(replays, 0u);

    // reset() reloads globals/counters but keeps the memo table
    // (geometry-only); the warm run must be bit-identical.
    fast.reset();
    EXPECT_EQ(fast.run({8}), first);
    EXPECT_EQ(fast.counters().instructions, cold.instructions);
    EXPECT_EQ(fast.counters().cycles, cold.cycles);
    EXPECT_EQ(fast.memoCount(), memos);
    EXPECT_GT(fast.replayedRuns(), replays);
}

TEST(FastCore, InvalidateMemosDropsAndRebuilds)
{
    const char *src = R"(
        u32 state;
        u32 main(u32 n) {
            for (u32 i = 0; i < n; i++)
                state = state * 3 + 1;
            return state;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore fast(pre, *mod);

    uint32_t first = fast.run({32});
    uint64_t cycles = fast.counters().cycles;
    EXPECT_GT(fast.memoCount(), 0u);

    // The analogue of Interpreter::invalidate(): stale memos must be
    // droppable, and rebuilding them must not change any observable.
    fast.invalidateMemos();
    EXPECT_EQ(fast.memoCount(), 0u);
    fast.reset();
    EXPECT_EQ(fast.run({32}), first);
    EXPECT_EQ(fast.counters().cycles, cycles);
    EXPECT_GT(fast.memoCount(), 0u);
}

TEST(FastCore, FuelGuardsAgainstRunawayUnderReplay)
{
    const char *src = "u32 main() { u32 x = 1; while (x) { x = 1; } "
                      "return x; }";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore fast(pre, *mod);
    fast.setFuel(5000);
    EXPECT_THROW(fast.run(), FatalError);
}

} // namespace
} // namespace bitspec
