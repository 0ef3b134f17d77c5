#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "backend/compiler.h"
#include "core/system.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "profile/bitwidth_profile.h"
#include "transform/squeezer.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

/** Compile @p src for @p isa (optionally squeezing) and check machine
 *  execution against the interpreter for every input. */
void
checkMachine(const std::string &src, TargetISA isa, bool squeeze,
             const std::vector<std::vector<uint32_t>> &inputs,
             Heuristic h = Heuristic::Max,
             const std::vector<uint64_t> &train = {})
{
    auto ref_mod = compileSource(src);
    auto mod = compileSource(src);
    if (squeeze) {
        BitwidthProfile profile;
        profile.profileRun(*mod, "main", train);
        SqueezeOptions opts;
        opts.heuristic = h;
        squeezeModule(*mod, profile, opts);
    }
    CompiledProgram cp = compileModule(*mod, isa);
    PredecodedProgram pre(cp.program);

    for (const auto &args : inputs) {
        Interpreter ref(*ref_mod);
        std::vector<uint64_t> iargs(args.begin(), args.end());
        uint64_t want = truncTo(ref.run("main", iargs), 32);

        FastCore core(pre, *mod);
        uint32_t got = core.run(args);
        EXPECT_EQ(got, want) << "isa=" << (int)isa
                             << " squeeze=" << squeeze;
        EXPECT_EQ(core.outputChecksum(), ref.outputChecksum());
    }
}

TEST(Backend, StraightLineArithmetic)
{
    const char *src =
        "u32 main(u32 a, u32 b) { return (a + b) * 3 - (a ^ b); }";
    checkMachine(src, TargetISA::Baseline, false, {{5, 9}, {0, 0},
                                                   {1000000, 77}});
    checkMachine(src, TargetISA::BitSpec, false, {{5, 9}});
}

TEST(Backend, DivisionAndRemainder)
{
    const char *src = R"(
        u32 main(u32 a, u32 b) {
            i32 sa = (i32)a - 1000;
            return a / b + a % b + (u32)(sa / 7) + (u32)(sa % 7);
        }
    )";
    checkMachine(src, TargetISA::Baseline, false,
                 {{100, 7}, {5, 100}, {12345, 13}});
}

TEST(Backend, ControlFlowAndLoops)
{
    const char *src = R"(
        u32 main(u32 n) {
            u32 s = 0;
            for (u32 i = 0; i < n; i++) {
                if (i % 3 == 0) s += i * 2;
                else if (i % 5 == 0) s ^= i;
                else s += 1;
            }
            return s;
        }
    )";
    checkMachine(src, TargetISA::Baseline, false, {{0}, {1}, {100}});
    checkMachine(src, TargetISA::BitSpec, false, {{100}});
}

TEST(Backend, MemoryAndGlobals)
{
    const char *src = R"(
        u32 tab[64];
        u8 bytes[64];
        u16 halves[64];
        u32 main(u32 n) {
            for (u32 i = 0; i < n; i++) {
                tab[i] = i * i;
                bytes[i] = (u8)(i * 7);
                halves[i] = (u16)(i * 300);
            }
            u32 s = 0;
            for (u32 i = 0; i < n; i++)
                s += tab[i] + bytes[i] + halves[i];
            return s;
        }
    )";
    checkMachine(src, TargetISA::Baseline, false, {{0}, {5}, {64}});
    checkMachine(src, TargetISA::BitSpec, false, {{64}});
}

TEST(Backend, CallsAndRecursion)
{
    const char *src = R"(
        u32 fib(u32 n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        u32 main(u32 n) { return fib(n); }
    )";
    checkMachine(src, TargetISA::Baseline, false, {{0}, {1}, {12}});
    checkMachine(src, TargetISA::BitSpec, false, {{12}});
}

TEST(Backend, SignedOperations)
{
    const char *src = R"(
        i32 main(i32 a, i32 b) {
            i32 q = a / b;
            i32 r = a % b;
            i32 sh = a >> 3;
            u32 cmp = a < b;
            return q * 1000 + r * 10 + sh + (i32)cmp;
        }
    )";
    checkMachine(src, TargetISA::Baseline, false,
                 {{static_cast<uint32_t>(-100), 7},
                  {100, 7},
                  {static_cast<uint32_t>(-100),
                   static_cast<uint32_t>(-7)}});
}

TEST(Backend, TernaryAndShortCircuit)
{
    const char *src = R"(
        u32 main(u32 a, u32 b) {
            u32 m = a > b ? a : b;
            u32 both = (a > 2 && b > 2) ? 10 : 20;
            u32 any = (a > 100 || b > 100) ? 5 : 6;
            return m + both + any;
        }
    )";
    checkMachine(src, TargetISA::Baseline, false,
                 {{1, 2}, {5, 3}, {200, 1}});
}

TEST(Backend, OutputsMatchInterpreter)
{
    const char *src = R"(
        u8 data[16] = "bitspec";
        void main() {
            for (u32 i = 0; i < 7; i++) out(data[i] * 3);
        }
    )";
    checkMachine(src, TargetISA::Baseline, false, {{}});
    checkMachine(src, TargetISA::BitSpec, false, {{}});
}

TEST(Backend, RegisterPressureSpills)
{
    // Many simultaneously-live values force spilling.
    const char *src = R"(
        u32 main(u32 n) {
            u32 a = n + 1; u32 b = n + 2; u32 c = n + 3; u32 d = n + 4;
            u32 e = n + 5; u32 f = n + 6; u32 g = n + 7; u32 h = n + 8;
            u32 i = n + 9; u32 j = n + 10; u32 k = n + 11;
            u32 l = n + 12; u32 m = n * 2; u32 o = n * 3; u32 p = n * 5;
            u32 s = 0;
            for (u32 t = 0; t < n; t++)
                s += a + b + c + d + e + f + g + h + i + j + k + l
                     + m + o + p;
            return s;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    EXPECT_GT(cp.stats.spilledVRegs, 0u);
    checkMachine(src, TargetISA::Baseline, false, {{0}, {3}, {50}});
}

// --- Speculative machine execution ---

TEST(Machine, SqueezedPaperCounterMisspeculates)
{
    const char *src =
        "u32 main() { u32 x = 0; do { x += 1; } while (x <= 255); "
        "return x; }";
    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod);
    SqueezeOptions opts;
    opts.heuristic = Heuristic::Avg;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
    EXPECT_GT(cp.stats.skeletonInsts, 0u);

    PredecodedProgram pre(cp.program);
    FastCore core(pre, *mod);
    EXPECT_EQ(core.run(), 256u);
    EXPECT_EQ(core.counters().misspeculations, 1u);
    EXPECT_GT(core.counters().alu8, 0u);
    EXPECT_GT(core.counters().rfWrite8, 0u);
}

TEST(Machine, SqueezedKernelsMatchUnderAllHeuristics)
{
    const char *src = R"(
        u8 buf[64] = "differential testing of machine speculation!";
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 i = 0; i < n; i++) {
                u32 c = buf[i % 44];
                h = (h * 31 + c) % 65521;
            }
            return h;
        }
    )";
    for (Heuristic h : {Heuristic::Max, Heuristic::Avg, Heuristic::Min}) {
        checkMachine(src, TargetISA::BitSpec, true,
                     {{0}, {10}, {44}, {500}}, h, {44});
    }
}

TEST(Machine, MisspeculationOnLargerRunInput)
{
    // Train small, run big: handlers must recover on real hardware
    // semantics (PC += delta into skeletons).
    const char *src = R"(
        u32 main(u32 n) {
            u32 sum = 0;
            u32 i = 0;
            while (i < n) { sum += i; i += 1; }
            return sum;
        }
    )";
    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod, "main", {10});
    SqueezeOptions opts;
    opts.heuristic = Heuristic::Avg;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);

    PredecodedProgram pre(cp.program);
    FastCore core(pre, *mod);
    EXPECT_EQ(core.run({1000}), (999u * 1000u) / 2);
    EXPECT_GE(core.counters().misspeculations, 1u);
}

TEST(Machine, SlicePackingReducesSpills)
{
    // Many live byte values: with slices they pack 4-per-register.
    // XOR chains keep every intermediate within a byte, so the
    // squeezer keeps all 14 values live as slices.
    const char *src = R"(
        u8 data[16] = "0123456789abcde";
        u32 main(u32 n) {
            u32 a0 = data[0]; u32 a1 = data[1]; u32 a2 = data[2];
            u32 a3 = data[3]; u32 a4 = data[4]; u32 a5 = data[5];
            u32 a6 = data[6]; u32 a7 = data[7]; u32 a8 = data[8];
            u32 a9 = data[9]; u32 aa = data[10]; u32 ab = data[11];
            u32 ac = data[12]; u32 ad = data[13];
            u32 s = 0;
            for (u32 i = 0; i < n; i++) {
                s = s ^ a0 ^ a1 ^ a2 ^ a3 ^ a4 ^ a5 ^ a6;
                s = s ^ a7 ^ a8 ^ a9 ^ aa ^ ab ^ ac ^ ad;
                s = s ^ (i & 0xff);
            }
            return s;
        }
    )";
    auto baseline_mod = compileSource(src);
    CompiledProgram base = compileModule(*baseline_mod,
                                         TargetISA::Baseline);

    auto bs_mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*bs_mod, "main", {4});
    SqueezeOptions opts;
    squeezeModule(*bs_mod, profile, opts);
    CompiledProgram bs = compileModule(*bs_mod, TargetISA::BitSpec);

    PredecodedProgram pre_cb(base.program);
    FastCore cb(pre_cb, *baseline_mod);
    PredecodedProgram pre_cs(bs.program);
    FastCore cs(pre_cs, *bs_mod);
    EXPECT_EQ(cb.run({10}), cs.run({10}));
    EXPECT_GT(cs.counters().rfRead8, 0u);

    // The paper's Fig. 10 metric is dynamic spill traffic: slices pack
    // 4-per-register on the hot path, so BitSpec reloads far less.
    // (Static spill counts include the cold CFG_orig clone.)
    uint64_t base_spills = cb.counters().dynSpillLoads +
                           cb.counters().dynSpillStores;
    uint64_t bs_spills = cs.counters().dynSpillLoads +
                         cs.counters().dynSpillStores;
    EXPECT_LT(bs_spills, base_spills);
}

/** A linked System holds its instructions once, in flat: after the
 *  4-instruction _start stub, the functions' codeSizes tile flat in
 *  baseAddr order, and no function keeps a copy of its code. */
TEST(System, LinkedProgramHoldsItsCodeOnce)
{
    constexpr uint32_t kStubInsts = 4;
    for (const Workload &w : mibenchSuite()) {
        const TrainedModule trained(
            w.source, ExpanderOptions{},
            [&w](Module &m) { w.setInput(m, 0); });
        for (const SystemConfig &config :
             {SystemConfig::baseline(),
              SystemConfig::bitspec(Heuristic::Max)}) {
            const System sys(trained, config);
            const MachProgram &prog = sys.program();
            const std::string cell =
                w.name + (config.squeeze ? "/bitspec-max" : "/baseline");

            std::vector<const MachFunction *> by_addr;
            size_t block_insts = 0, code_insts = 0, total = 0;
            for (const MachFunction &mf : prog.funcs) {
                code_insts += mf.code.size();
                for (const MachBlock &mb : mf.blocks)
                    block_insts += mb.insts.size();
                total += mf.codeSize;
                by_addr.push_back(&mf);
            }
            EXPECT_EQ(code_insts, 0u) << cell;
            EXPECT_EQ(block_insts, 0u) << cell;
            EXPECT_EQ(total, prog.flat.size() - kStubInsts) << cell;

            std::sort(by_addr.begin(), by_addr.end(),
                      [](const MachFunction *a, const MachFunction *b) {
                          return a->baseAddr < b->baseAddr;
                      });
            uint32_t next = kStubInsts;
            for (const MachFunction *mf : by_addr) {
                ASSERT_EQ(prog.indexOf(mf->baseAddr), next)
                    << cell << ": " << mf->name;
                ASSERT_GT(mf->codeSize, 0u) << cell << ": " << mf->name;
                ASSERT_LE(next + mf->codeSize, prog.flat.size()) << cell;
                for (uint32_t i = next; i < next + mf->codeSize; ++i)
                    ASSERT_EQ(prog.funcOfIndex[i],
                              static_cast<uint32_t>(mf->id))
                        << cell << ": " << mf->name << " at " << i;
                next += mf->codeSize;
            }
            EXPECT_EQ(next, prog.flat.size()) << cell;
        }
    }
}

TEST(System, FacadeEndToEnd)
{
    const char *src = R"(
        u8 text[32] = "energy with slices";
        u32 main() {
            u32 h = 0;
            for (u32 i = 0; i < 18; i++) h += text[i];
            out(h);
            return h;
        }
    )";
    System base(src, SystemConfig::baseline());
    System spec(src, SystemConfig::bitspec());
    RunResult rb = base.run();
    RunResult rs = spec.run();
    EXPECT_EQ(rb.returnValue, rs.returnValue);
    EXPECT_EQ(rb.outputChecksum, rs.outputChecksum);
    EXPECT_GT(rb.totalEnergy, 0.0);
    EXPECT_GT(rs.totalEnergy, 0.0);
    EXPECT_GT(rs.counters.rfRead8 + rs.counters.rfWrite8, 0u);
    // Baseline never touches slices.
    EXPECT_EQ(rb.counters.rfRead8 + rb.counters.rfWrite8, 0u);
}

TEST(System, DtsScalesEnergyDown)
{
    const char *src = R"(
        u32 main() {
            u32 s = 1;
            for (u32 i = 0; i < 500; i++) s = s * 3 + (s >> 2);
            return s;
        }
    )";
    System plain(src, SystemConfig::baseline());
    System dts(src, SystemConfig::dtsOnly());
    RunResult rp = plain.run();
    RunResult rd = dts.run();
    EXPECT_EQ(rp.returnValue, rd.returnValue);
    EXPECT_LT(rd.totalEnergy, rp.totalEnergy);
    EXPECT_LT(rd.meanVoltage, 1.2);
    // The paper's DTS saves roughly 20-35% on these mixes.
    double saving = 1.0 - rd.totalEnergy / rp.totalEnergy;
    EXPECT_GT(saving, 0.10);
    EXPECT_LT(saving, 0.50);
}

} // namespace
} // namespace bitspec
