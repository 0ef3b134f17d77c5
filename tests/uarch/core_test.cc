#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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

TEST(Predecode, CodeKeyCoversEveryField)
{
    // The simulation memo serves a run by this key, so a field it
    // missed would serve one program's result for another's.
    auto mod = compileSource("u32 main(u32 n) { return n * 3 + 1; }");
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    const PredecodedProgram pre(cp.program);
    const PredecodedProgram again(cp.program);
    EXPECT_EQ(pre.codeKey(), again.codeKey());
    EXPECT_EQ(pre.codeKey(), codeKeyOf(pre.insts()));
    ASSERT_GE(pre.size(), 2u);

    // Each edit changes one field of the last instruction by one.
    const std::vector<void (*)(PInst &)> edits = {
        [](PInst &p) { p.kind = PKind(uint8_t(p.kind) + 1); },
        [](PInst &p) { ++p.aux; },
        [](PInst &p) { p.cond = Cond(uint8_t(p.cond) ^ 1); },
        [](PInst &p) { ++p.dstWrite; },
        [](PInst &p) { ++p.latency; },
        [](PInst &p) { p.readyMask ^= 0x8000; },
        [](PInst &p) { p.dst.mask ^= 1; },
        [](PInst &p) { p.dst.imm ^= 1; },
        [](PInst &p) { ++p.dst.reg; },
        [](PInst &p) { ++p.dst.shift; },
        [](PInst &p) { p.dst.isImm = !p.dst.isImm; },
        [](PInst &p) { p.a.mask ^= 1; },
        [](PInst &p) { p.a.imm ^= 1; },
        [](PInst &p) { ++p.a.reg; },
        [](PInst &p) { ++p.a.shift; },
        [](PInst &p) { p.a.isImm = !p.a.isImm; },
        [](PInst &p) { p.b.mask ^= 1; },
        [](PInst &p) { p.b.imm ^= 1; },
        [](PInst &p) { ++p.b.reg; },
        [](PInst &p) { ++p.b.shift; },
        [](PInst &p) { p.b.isImm = !p.b.isImm; },
        [](PInst &p) { p.target ^= 0x80000000u; },
        [](PInst &p) { ++p.contrib.alu32; },
        [](PInst &p) { ++p.contrib.alu8; },
        [](PInst &p) { ++p.contrib.mulDiv; },
        [](PInst &p) { ++p.contrib.rfRead32; },
        [](PInst &p) { ++p.contrib.rfRead8; },
        [](PInst &p) { ++p.contrib.loads; },
        [](PInst &p) { ++p.contrib.stores; },
        [](PInst &p) { ++p.contrib.branches; },
        [](PInst &p) { ++p.contrib.takenBranches; },
        [](PInst &p) { ++p.contrib.calls; },
        [](PInst &p) { ++p.contrib.outputs; },
        [](PInst &p) { ++p.contrib.dynSpillLoads; },
        [](PInst &p) { ++p.contrib.dynSpillStores; },
        [](PInst &p) { ++p.contrib.dynCopies; },
    };
    std::set<std::string> keys = {pre.codeKey().hex()};
    for (size_t i = 0; i < edits.size(); ++i) {
        std::vector<PInst> insts = pre.insts();
        edits[i](insts.back());
        EXPECT_TRUE(keys.insert(codeKeyOf(insts).hex()).second)
            << "edit " << i << " left the key unchanged or collided";
    }
    std::vector<PInst> shorter = pre.insts();
    shorter.pop_back();
    EXPECT_TRUE(keys.insert(codeKeyOf(shorter).hex()).second);
}

TEST(Predecode, WordHashSeesLengthAndOrder)
{
    auto digest = [](const std::string &bytes) {
        WordHash128 h;
        h.addBytes(bytes.data(), bytes.size());
        return h.digest().hex();
    };
    std::set<std::string> seen;
    for (const std::string &s :
         {std::string(), std::string(1, '\0'), std::string(8, '\0'),
          std::string(9, '\0'), std::string("abc"),
          std::string("abc\0", 4), std::string("bac"),
          std::string("abcdefgh"), std::string("abcdefgi"),
          std::string("abcdefghabcdefgh")})
        EXPECT_TRUE(seen.insert(digest(s)).second) << s.size();
    EXPECT_EQ(digest("abcdefghi"), digest("abcdefghi"));
}

} // namespace
} // namespace bitspec
