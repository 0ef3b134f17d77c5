/**
 * @file
 * Targeted unit tests of the core: memo-guard divergence (hot block ->
 * cache miss or misspeculation -> hot again), superblock replay across
 * unconditional jumps, where memos get built, memo invalidation,
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

/** The region rows and the block rows of @p slow and @p fast agree. */
void
expectSameRows(const BlockProfilerSink &slow,
               const BlockProfilerSink &fast)
{
    const std::vector<RegionActivity> slow_regions =
        slow.regionActivity();
    const std::vector<RegionActivity> fast_regions =
        fast.regionActivity();
    ASSERT_EQ(slow_regions.size(), fast_regions.size());
    for (size_t i = 0; i < slow_regions.size(); ++i) {
        const RegionActivity &a = slow_regions[i];
        const RegionActivity &b = fast_regions[i];
        EXPECT_EQ(a.entries, b.entries) << "region " << i;
        EXPECT_EQ(a.misspecs, b.misspecs) << "region " << i;
        EXPECT_EQ(a.specInsts, b.specInsts) << "region " << i;
        EXPECT_EQ(a.specCycles, b.specCycles) << "region " << i;
        EXPECT_EQ(a.skeletonInsts, b.skeletonInsts) << "region " << i;
        EXPECT_EQ(a.handlerInsts, b.handlerInsts) << "region " << i;
        EXPECT_EQ(a.handlerCycles, b.handlerCycles) << "region " << i;
    }
    EXPECT_EQ(slow.unattributedMisspecs(), fast.unattributedMisspecs());

    ASSERT_EQ(slow.activity().size(), fast.activity().size());
    for (size_t i = 0; i < slow.activity().size(); ++i) {
        const BlockActivity &a = slow.activity()[i];
        const BlockActivity &b = fast.activity()[i];
        EXPECT_EQ(a.entries, b.entries) << "block " << i;
        EXPECT_EQ(a.insts, b.insts) << "block " << i;
        EXPECT_EQ(a.cycles, b.cycles) << "block " << i;
        EXPECT_EQ(a.misspecs, b.misspecs) << "block " << i;
    }
    EXPECT_EQ(slow.unattributed(), fast.unattributed());
}

/** True when some unconditional branch of @p pre jumps to @p idx. */
bool
isJumpTarget(const PredecodedProgram &pre, uint32_t idx)
{
    for (const PInst &p : pre.insts())
        if (p.kind == PKind::Branch && p.cond == Cond::AL &&
            p.target == idx)
            return true;
    return false;
}

TEST(FastCore, SuperblockReplaysAcrossIfElseJoin)
{
    // The loop body is an if/else whose arms meet at a join block
    // that jumps back to the loop test: each arm's memo runs through
    // the join and the test, so one replay covers more than any
    // single block of the loop.
    const char *src = R"(
        u32 data[64];
        u32 main(u32 n) {
            u32 h = 1;
            u32 g = 2;
            for (u32 i = 0; i < n; i++) {
                u32 v = data[i & 63];
                if ((v ^ i) & 1) {
                    h = h * 3 + v;
                    g = g + (h >> 3);
                    h = h ^ (g << 2);
                } else {
                    g = (g ^ v) + 7;
                    h = h + (g >> 5);
                    g = g - (h << 1);
                }
                h = h + (g ^ (h >> 7));
                g = g * 5 + (h & 255);
            }
            return h ^ g;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    const BlockMap bmap(cp.program);

    FastCore slow(pre, *mod);
    BlockProfilerSink heat(bmap);
    slow.setBlockProfiler(&heat);
    uint32_t want = runSlowPath(slow, {1000});

    FastCore fast(pre, *mod);
    EXPECT_EQ(fast.run({1000}), want);
    expectSameObservables(slow, fast);

    // The loop's blocks are the ones entered more than once.
    uint32_t longest_block = 0;
    for (size_t i = 0; i < bmap.sites().size(); ++i)
        if (heat.activity()[i].entries > 1)
            longest_block =
                std::max(longest_block, bmap.sites()[i].staticInsts);
    ASSERT_GT(longest_block, 0u);
    ASSERT_GT(fast.replayedRuns(), 0u);
    const uint64_t replayed =
        fast.counters().instructions - fast.slowInsts();
    EXPECT_GT(replayed / fast.replayedRuns(), longest_block);
}

TEST(FastCore, DivergenceInSecondSegmentFeedsSinksExactly)
{
    // Squeezed on a short run, acc and h become speculative 8-bit
    // values. The long run streams a 16 KiB array through the 8 KiB
    // L1D (a D-miss every 32 bytes) and, once the array's values turn
    // nonzero, overflows them (a misspeculation). The load and the
    // speculative adds sit in the join block, which the else arm
    // reaches by an unconditional jump: both divergences fire in the
    // second segment of the else arm's superblock.
    const char *src = R"(
        u8 bytes[16384];
        u32 main(u32 n) {
            for (u32 j = 0; j < 16384; j++)
                bytes[j] = j >> 10;
            u32 h = 1;
            u8 acc = 0;
            for (u32 i = 0; i < n; i++) {
                if (h == 0) {
                    h = h * 3 + 1;
                } else {
                    h = h ^ 5;
                }
                acc = acc + bytes[i];
                h = h + acc;
            }
            return h;
        }
    )";
    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod, "main", {300});
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
    PredecodedProgram pre(cp.program);
    const BlockMap bmap(cp.program);

    FastCore slow(pre, *mod);
    BlockProfilerSink slow_heat(bmap);
    slow.setBlockProfiler(&slow_heat);
    uint32_t want = runSlowPath(slow, {4000});

    FastCore fast(pre, *mod);
    BlockProfilerSink fast_heat(bmap);
    fast.setBlockProfiler(&fast_heat);
    EXPECT_EQ(fast.run({4000}), want);
    expectSameObservables(slow, fast);
    expectSameRows(slow_heat, fast_heat);

    EXPECT_GT(fast.replayedRuns(), 0u);
    EXPECT_GT(fast.memory().l1d().misses, 100u);
    ASSERT_GT(fast.counters().misspeculations, 0u);
    // The misspeculating block is entered by an unconditional jump.
    for (size_t i = 0; i < bmap.sites().size(); ++i) {
        if (fast_heat.activity()[i].misspecs) {
            EXPECT_TRUE(isJumpTarget(pre, bmap.sites()[i].startIndex))
                << "block " << bmap.sites()[i].block;
        }
    }
}

/** True when some adjacent MOVW/MOVT pair on one register is
 *  followed by a load in its block. */
bool
hasLoadAfterMovwMovt(const PredecodedProgram &pre)
{
    const std::vector<PInst> &insts = pre.insts();
    for (size_t k = 0; k + 1 < insts.size(); ++k) {
        if (insts[k].kind != PKind::Movw ||
            insts[k + 1].kind != PKind::Movt ||
            insts[k].dst.reg != insts[k + 1].dst.reg)
            continue;
        for (size_t j = k + 2; j < insts.size(); ++j) {
            if (insts[j].kind == PKind::Load)
                return true;
            if (insts[j].kind == PKind::Branch ||
                insts[j].kind == PKind::Call ||
                insts[j].kind == PKind::Ret ||
                insts[j].kind == PKind::Halt)
                break;
        }
    }
    return false;
}

TEST(FastCore, DMissAfterFusedMovwMovtFeedsSinksExactly)
{
    // The loop materializes data's address with MOVW/MOVT right before
    // loading from it; replay runs the pair as one micro-op. The 16 KiB
    // array streams through the 8 KiB L1D, so that load takes a D-miss
    // every 32 bytes and the replay diverges on the op after the fused
    // pair.
    const char *src = R"(
        u32 data[4096];
        u32 main(u32 passes) {
            u32 h = 0;
            for (u32 p = 0; p < passes; p++)
                for (u32 i = 0; i < 4096; i++)
                    h = (h ^ data[i]) * 16777619;
            return h;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    ASSERT_TRUE(hasLoadAfterMovwMovt(pre))
        << "no MOVW/MOVT pair before a load: the test lost its target";
    const BlockMap bmap(cp.program);

    FastCore slow(pre, *mod);
    BlockProfilerSink slow_heat(bmap);
    slow.setBlockProfiler(&slow_heat);
    uint32_t want = runSlowPath(slow, {3});

    FastCore fast(pre, *mod);
    BlockProfilerSink fast_heat(bmap);
    fast.setBlockProfiler(&fast_heat);
    EXPECT_EQ(fast.run({3}), want);
    expectSameObservables(slow, fast);
    expectSameRows(slow_heat, fast_heat);

    EXPECT_GT(fast.replayedRuns(), 0u);
    EXPECT_GT(fast.memory().l1d().misses, 1000u);
}

TEST(FastCore, DivergenceRightAfterInteriorJumpFeedsSinksExactly)
{
    // Profiled on a run where acc stays below 256, acc becomes a
    // speculative 8-bit value. The join block starts with its ADD8,
    // and the else arm reaches it by an unconditional jump (the then
    // arm by two): once the array's values turn nonzero, acc carries
    // out, and the misspeculation fires on the first op after an
    // interior jump, which has no micro-op of its own.
    const char *src = R"(
        u8 bytes[16384];
        u32 main(u32 n) {
            for (u32 j = 0; j < 16384; j++)
                bytes[j] = j >> 10;
            u32 h = 77777;
            u8 acc = 0;
            u32 sum = 0;
            for (u32 i = 0; i < n; i++) {
                u8 v = bytes[i];
                if (h & 1) {
                    h = h * 3 + 1;
                } else {
                    h = h >> 1;
                }
                acc = acc + v;
                sum = sum + acc;
            }
            return h + sum;
        }
    )";
    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod, "main", {1100});
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
    PredecodedProgram pre(cp.program);
    const BlockMap bmap(cp.program);

    FastCore slow(pre, *mod);
    BlockProfilerSink slow_heat(bmap);
    slow.setBlockProfiler(&slow_heat);
    uint32_t want = runSlowPath(slow, {4000});

    FastCore fast(pre, *mod);
    BlockProfilerSink fast_heat(bmap);
    fast.setBlockProfiler(&fast_heat);
    EXPECT_EQ(fast.run({4000}), want);
    expectSameObservables(slow, fast);
    expectSameRows(slow_heat, fast_heat);

    EXPECT_GT(fast.replayedRuns(), 0u);
    ASSERT_GT(fast.counters().misspeculations, 0u);
    // The misspeculating block is entered by an unconditional jump and
    // its first instruction is its only check site, a speculative ADD8.
    const std::vector<PInst> &insts = pre.insts();
    for (size_t i = 0; i < bmap.sites().size(); ++i) {
        if (!fast_heat.activity()[i].misspecs)
            continue;
        const uint32_t first = bmap.sites()[i].startIndex;
        EXPECT_TRUE(isJumpTarget(pre, first))
            << "block " << bmap.sites()[i].block;
        EXPECT_EQ(insts[first].kind, PKind::Add8);
        EXPECT_TRUE(insts[first].aux);
        for (uint32_t j = first + 1; insts[j].kind != PKind::Branch; ++j) {
            const PInst &p = insts[j];
            EXPECT_FALSE(p.aux && (p.kind == PKind::Add8 ||
                                   p.kind == PKind::Sub8 ||
                                   p.kind == PKind::Trn8 ||
                                   p.kind == PKind::LoadSpec))
                << "second check site at " << j;
        }
    }
}

/** Hand-assembled EMB32 code, for kernels that need an exact
 *  instruction order or code placement, which the compiler does not
 *  promise. Flat indices are the branch targets; the program starts
 *  at index 0 and ends at a HALT. */
class Asm
{
  public:
    static MOpnd reg(unsigned r) { return MOpnd::makeReg(r); }
    static MOpnd imm(int64_t v) { return MOpnd::makeImm(v); }

    uint32_t here() const { return static_cast<uint32_t>(prog_.flat.size()); }

    /** Pad with HALTs (never reached) up to flat index @p idx. */
    void
    at(uint32_t idx)
    {
        ASSERT_LE(here(), idx);
        while (here() < idx)
            op(MOp::HALT);
    }

    void
    op(MOp o, MOpnd dst = {}, MOpnd a = {}, MOpnd b = {})
    {
        MachInst m;
        m.op = o;
        m.dst = dst;
        m.a = a;
        m.b = b;
        prog_.flat.push_back(m);
    }

    /** B (or B<cond>) / BL to flat index @p target. */
    void
    jump(MOp o, uint32_t target, Cond cond = Cond::AL)
    {
        MachInst m;
        m.op = o;
        m.cond = cond;
        m.target = static_cast<int>(target);
        prog_.flat.push_back(m);
    }

    const MachProgram &prog() const { return prog_; }

  private:
    MachProgram prog_;
};

/** Run @p slow on its slow path and @p fast with replay, two cores
 *  of one program; every observable must agree. */
void
expectReplayMatchesSlowPath(FastCore &slow, FastCore &fast)
{
    const uint32_t want = runSlowPath(slow, {});
    EXPECT_EQ(fast.run({}), want);
    expectSameObservables(slow, fast);
}

TEST(FastCore, LoadMissAfterReplayedMulWaitsForTheMul)
{
    // The loop loads one word per 32-byte line of a cold 32 KiB
    // array, so every load misses and diverges the replayed loop,
    // with the MUL just before it still in flight (latency 3). The
    // slow path resumes at the ADD that reads the product, which must
    // stall for it: the divergence has to rebuild the replayed
    // prefix's scoreboard, since the replayed ops store none. Nothing
    // reads the loaded word, and the NOPs outlast the miss, so no
    // later stall hides a lost cycle.
    using A = Asm;
    constexpr uint32_t kIters = 1024;
    Asm a;
    a.op(MOp::MOVW, A::reg(2), A::imm(0)); // r2 = 0x100000: the array.
    a.op(MOp::MOVT, A::reg(2), A::imm(0x10));
    a.op(MOp::MOV, A::reg(1), A::imm(0));  // r1: byte offset.
    a.op(MOp::MOVW, A::reg(5), A::imm(kIters * 32));
    a.op(MOp::MOV, A::reg(3), A::imm(1));
    const uint32_t loop = a.here();
    a.op(MOp::MUL, A::reg(3), A::reg(3), A::imm(31));
    a.op(MOp::LDR, A::reg(4), A::reg(2), A::reg(1));
    a.op(MOp::ADD, A::reg(3), A::reg(3), A::imm(1)); // Reads the MUL.
    for (int i = 0; i < 72; ++i) // Longer than a DRAM miss.
        a.op(MOp::NOP);
    a.op(MOp::ADD, A::reg(1), A::reg(1), A::imm(32));
    a.op(MOp::CMP, {}, A::reg(1), A::reg(5));
    a.jump(MOp::B, loop, Cond::LO);
    a.op(MOp::MOV, A::reg(0), A::reg(3));
    a.op(MOp::HALT);

    PredecodedProgram pre(a.prog());
    Module mod;
    FastCore slow(pre, mod), fast(pre, mod);
    expectReplayMatchesSlowPath(slow, fast);

    // Every load missed, and the slow path ran fewer than two
    // instructions per miss: the loads ran in replay, so each miss
    // diverged it.
    const uint64_t misses = fast.memory().l1d().misses;
    EXPECT_GE(misses, kIters);
    EXPECT_GE(fast.replayedRuns(), kIters - 10);
    EXPECT_LT(fast.slowInsts(), 2 * misses);
}

TEST(FastCore, DivideInFlightPastMemoExitHoldsTheSuccessor)
{
    // The loop's test block ends in a UDIV (latency 12) right before
    // its terminator, and the block the branch falls through to reads
    // the quotient first. A replayed memo therefore exits with the
    // quotient still in flight, and the successor's entry guard must
    // see it: the exit writes the memo's scoreboard, since the
    // replayed ops store none.
    using A = Asm;
    constexpr uint32_t kIters = 2000;
    Asm a;
    a.op(MOp::MOV, A::reg(1), A::imm(0));
    a.op(MOp::MOVW, A::reg(5), A::imm(kIters));
    a.op(MOp::MOVW, A::reg(6), A::imm(50000));
    a.op(MOp::MOV, A::reg(7), A::imm(7));
    a.op(MOp::MOV, A::reg(4), A::imm(0));
    const uint32_t head = a.here();
    a.op(MOp::ADD, A::reg(1), A::reg(1), A::imm(1));
    a.op(MOp::CMP, {}, A::reg(1), A::reg(5));
    a.op(MOp::UDIV, A::reg(3), A::reg(6), A::reg(7));
    a.jump(MOp::B, a.here() + 4, Cond::EQ); // Out, past the next block.
    a.op(MOp::ADD, A::reg(4), A::reg(4), A::reg(3)); // Reads the UDIV.
    a.op(MOp::ADD, A::reg(6), A::reg(6), A::reg(4));
    a.jump(MOp::B, head);
    a.op(MOp::MOV, A::reg(0), A::reg(4));
    a.op(MOp::HALT);

    PredecodedProgram pre(a.prog());
    Module mod;
    FastCore slow(pre, mod), fast(pre, mod);
    expectReplayMatchesSlowPath(slow, fast);

    // Every iteration replays the loop and then finds the successor
    // not ready, which runs its first instruction on the slow path.
    EXPECT_GE(fast.replayedRuns(), kIters - 10);
    EXPECT_GE(fast.slowInsts(), kIters);
}

TEST(FastCore, SlowPathFillsSeeLazilyCommittedReplayFetches)
{
    // Five code lines share one L1I set of four ways: a called loop
    // R, replayed, and four call sites S1..S4, run in turn on every
    // outer iteration. Between two call sites R replays, so it stays
    // the most recently used line, and the call sites miss in a
    // cycle of four lines over three ways: each runs on the slow
    // path, and its fill must evict the oldest call site, not R.
    // R's replays commit their fetches lazily, so the victim is only
    // right if they are committed before the slow path's fetch.
    using A = Asm;
    constexpr uint32_t kLine = 8;       // Instructions per I-line.
    constexpr uint32_t kSetStride = 512; // 8 KiB / 4 ways / 4 B.
    constexpr uint32_t kOuter = 300;
    const uint32_t r = kLine;           // R's line: set 1.
    auto site = [&](uint32_t k) { return r + k * kSetStride; };

    Asm a;
    a.op(MOp::MOV, A::reg(9), A::imm(0));
    a.op(MOp::MOVW, A::reg(10), A::imm(kOuter));
    a.jump(MOp::B, site(1));
    const uint32_t done = a.here();
    a.op(MOp::HALT);
    const uint32_t tail = a.here(); // Outer loop latch (set 0).
    a.op(MOp::ADD, A::reg(9), A::reg(9), A::imm(1));
    a.op(MOp::CMP, {}, A::reg(9), A::reg(10));
    a.jump(MOp::B, site(1), Cond::LO);
    a.jump(MOp::B, done);
    a.at(r); // R: a 6-iteration loop, then return.
    a.op(MOp::MOV, A::reg(1), A::imm(0));
    const uint32_t inner = a.here();
    a.op(MOp::ADD, A::reg(1), A::reg(1), A::imm(1));
    a.op(MOp::ADD, A::reg(2), A::reg(2), A::reg(1));
    a.op(MOp::CMP, {}, A::reg(1), A::imm(6));
    a.jump(MOp::B, inner, Cond::LO);
    a.op(MOp::BXLR);
    for (uint32_t k = 1; k <= 4; ++k) {
        a.at(site(k));
        a.jump(MOp::BL, r);
        a.jump(MOp::B, k < 4 ? site(k + 1) : tail);
    }
    ASSERT_EQ(a.prog().addrOf(r) / 32 % 64,
              a.prog().addrOf(site(4)) / 32 % 64);

    PredecodedProgram pre(a.prog());
    Module mod;
    FastCore slow(pre, mod), fast(pre, mod);
    expectReplayMatchesSlowPath(slow, fast);

    // Every call site missed on every outer iteration, and R
    // replayed in between.
    EXPECT_GE(fast.memory().l1i().misses, 4 * kOuter);
    EXPECT_GE(fast.replayedRuns(), 4 * kOuter);
    EXPECT_GT(fast.slowInsts(), 4 * kOuter);
}

TEST(FastCore, LoopFreeCodeBuildsNoMemos)
{
    // Every index runs once, so no memo would ever replay.
    auto mod = compileSource(
        "u32 main(u32 a) { u32 b = a * 3 + 1; "
        "return (b ^ (a >> 2)) + 5; }");
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore fast(pre, *mod);
    EXPECT_EQ(fast.run({9}), (28u ^ 2u) + 5u);
    EXPECT_EQ(fast.memoCount(), 0u);
    EXPECT_EQ(fast.replayedRuns(), 0u);
    EXPECT_EQ(fast.slowInsts(), fast.counters().instructions);
}

TEST(FastCore, LoopBuildsItsMemosOnTheSecondIteration)
{
    const char *src = R"(
        u32 main(u32 n) {
            u32 h = 7;
            for (u32 i = 0; i < n; i++)
                h = h * 31 + (i ^ (h >> 3));
            return h;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);

    // One iteration leaves the body unmemoized; the second builds its
    // memo and replays it.
    FastCore one(pre, *mod);
    one.run({1});
    FastCore two(pre, *mod);
    two.run({2});
    EXPECT_GT(two.memoCount(), one.memoCount());
    EXPECT_GT(two.replayedRuns(), 0u);

    // Later iterations build nothing more and all replay: only the
    // first iteration runs on the slow path.
    FastCore many(pre, *mod);
    uint32_t got = many.run({50});
    EXPECT_EQ(many.memoCount(), two.memoCount());
    EXPECT_EQ(many.slowInsts(), two.slowInsts());

    FastCore slow(pre, *mod);
    EXPECT_EQ(runSlowPath(slow, {50}), got);
    expectSameObservables(slow, many);
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
