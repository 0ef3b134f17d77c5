#include <gtest/gtest.h>

#include "backend/compiler.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
#include "transform/squeezer.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"

namespace bitspec
{
namespace
{

/** The skeleton-layout invariant (paper §3.3.4): for every
 *  instruction in a function's speculative area at flat index p, the
 *  slot at p + Δ/4 holds a skeleton branch; and for instructions that
 *  can actually misspeculate, that branch targets a handler block of
 *  the right region. */
TEST(Layout, SkeletonInvariantHolds)
{
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
    profile.profileRun(*mod, "main", {44});
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);

    const auto &flat = cp.program.flat;
    unsigned checked = 0;
    for (uint32_t i = 0; i < flat.size(); ++i) {
        if (!mayMisspeculate(flat[i]))
            continue;
        // Find this function's delta.
        uint32_t func = cp.program.funcOfIndex[i];
        uint32_t delta = 0;
        for (const auto &mf : cp.program.funcs)
            if (static_cast<uint32_t>(mf.id) == func)
                delta = mf.delta;
        ASSERT_GT(delta, 0u) << "speculative op with no delta";
        uint32_t slot = i + delta / kInstBytes;
        ASSERT_LT(slot, flat.size());
        EXPECT_EQ(flat[slot].op, MOp::B) << "index " << i;
        EXPECT_EQ(flat[slot].tag, InstTag::Skeleton) << "index " << i;
        EXPECT_EQ(flat[slot].cond, Cond::AL);
        ++checked;
    }
    EXPECT_GT(checked, 0u) << "no speculative instructions emitted";
}

TEST(Core, SliceWritesAliasFullRegister)
{
    // Squeezed code interleaves slice and word accesses to the same
    // architectural registers; this kernel fails unless slice writes
    // land in the right byte of the full register and vice versa.
    const char *src = R"(
        u8 bytes[16] = "aliasing check!";
        u32 main() {
            u32 acc = 0;
            for (u32 i = 0; i < 15; i++) {
                u32 lo = bytes[i];           // Slice-held value.
                u32 wide = lo * 0x01010101;  // Word compute from it.
                acc ^= wide;
                acc = (acc >> 8) | ((acc & 0xff) << 24);
            }
            return acc;
        }
    )";
    auto ref = compileSource(src);
    Interpreter in(*ref);
    uint64_t want = truncTo(in.run("main"), 32);

    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod);
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
    PredecodedProgram pre(cp.program);
    FastCore core(pre, *mod);
    EXPECT_EQ(core.run(), want);
    EXPECT_GT(core.counters().rfWrite8, 0u);
}

TEST(Core, FuelGuardsAgainstRunaway)
{
    const char *src = "u32 main() { u32 x = 1; while (x) { x = 1; } "
                      "return x; }";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore core(pre, *mod);
    core.setFuel(5000);
    EXPECT_THROW(core.run(), FatalError);
}

TEST(Core, ResetRestoresGlobalsAndCounters)
{
    const char *src = R"(
        u32 state;
        u32 main() { state = state + 7; return state; }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore core(pre, *mod);
    EXPECT_EQ(core.run(), 7u);
    core.reset();
    EXPECT_EQ(core.run(), 7u); // Not 14: memory reloaded.
    EXPECT_GT(core.counters().instructions, 0u);
}

TEST(Core, CyclesExceedInstructionsWithMemoryTraffic)
{
    const char *src = R"(
        u32 buf[512];
        u32 main() {
            u32 s = 0;
            for (u32 i = 0; i < 512; i++) buf[i] = i;
            for (u32 i = 0; i < 512; i++) s += buf[i] * 3;
            return s;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore core(pre, *mod);
    core.run();
    const ActivityCounters &c = core.counters();
    EXPECT_GT(c.cycles, c.instructions); // Stalls exist.
    EXPECT_GT(c.loads, 500u);
    EXPECT_GT(c.stores, 500u);
    EXPECT_GT(core.memory().l1d().misses, 0u);
}

TEST(Core, ThumbExecutesMoreInstructions)
{
    const char *src = R"(
        u32 main(u32 n) {
            u32 a = 1; u32 b = 2; u32 c = 3;
            for (u32 i = 0; i < n; i++) {
                u32 t = a + b;
                a = b ^ c;
                b = c + t;
                c = t;
            }
            return a + b + c;
        }
    )";
    auto m1 = compileSource(src);
    CompiledProgram base = compileModule(*m1, TargetISA::Baseline);
    auto m2 = compileSource(src);
    CompiledProgram thumb = compileModule(*m2, TargetISA::Thumb);


    PredecodedProgram pre_cb(base.program);
    FastCore cb(pre_cb, *m1);
    PredecodedProgram pre_ct(thumb.program);
    FastCore ct(pre_ct, *m2);
    EXPECT_EQ(cb.run({100}), ct.run({100}));
    EXPECT_GT(ct.counters().instructions,
              cb.counters().instructions);
}

/** Hand-build a program running one memory op against @p addr, then
 *  HALT. Address arrives via an immediate base operand. */
MachProgram
memProbeProgram(MOp op, uint32_t addr)
{
    MachProgram prog;
    MachInst m;
    m.op = op;
    m.dst = MOpnd::makeReg(1);
    m.a = MOpnd::makeImm(static_cast<int64_t>(addr));
    m.b = MOpnd::makeImm(0);
    prog.flat.push_back(m);
    MachInst halt;
    halt.op = MOp::HALT;
    prog.flat.push_back(halt);
    return prog;
}

TEST(Core, LoadBoundsCheckDoesNotWrapNearAddressMax)
{
    // addr + bytes overflows uint32_t (0xFFFFFFFD + 4 == 1), so a
    // 32-bit comparison would accept the access and read far out of
    // bounds. The check must be performed in 64 bits.
    auto mod = compileSource("u32 main() { return 0; }");
    MachProgram prog = memProbeProgram(MOp::LDR, 0xFFFFFFFDu);
    PredecodedProgram pre(prog);
    FastCore core(pre, *mod);
    EXPECT_THROW(core.run(), FatalError);
}

TEST(Core, StoreBoundsCheckDoesNotWrapNearAddressMax)
{
    auto mod = compileSource("u32 main() { return 0; }");
    MachProgram prog = memProbeProgram(MOp::STR, 0xFFFFFFFEu);
    PredecodedProgram pre(prog);
    FastCore core(pre, *mod);
    EXPECT_THROW(core.run(), FatalError);
}

TEST(Core, StraddlingAccessAtMemoryEndIsRejected)
{
    // Non-wrapping case: a 4-byte access whose last byte falls one
    // past the data memory must also fault.
    auto mod = compileSource("u32 main() { return 0; }");
    uint32_t end = static_cast<uint32_t>(FastCore::kMemBytes);
    MachProgram prog = memProbeProgram(MOp::LDR, end - 3);
    PredecodedProgram pre(prog);
    FastCore core(pre, *mod);
    EXPECT_THROW(core.run(), FatalError);

    // The last fully in-bounds word is fine.
    MachProgram ok = memProbeProgram(MOp::LDR, end - 4);
    PredecodedProgram pre_core2(ok);
    FastCore core2(pre_core2, *mod);
    EXPECT_EQ(core2.run(), 0u);
}

} // namespace
} // namespace bitspec
