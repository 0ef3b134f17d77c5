/**
 * @file
 * Randomised differential testing of the whole stack: a seeded
 * generator emits random-but-valid C-subset programs; each must
 * produce identical results across (1) the reference interpreter,
 * (2) squeezed IR under hardware and forced misspeculation, and
 * (3) compiled machine code on all three ISAs.
 */

#include <gtest/gtest.h>

#include <string>

#include "backend/compiler.h"
#include "core/experiment.h"
#include "frontend/irgen.h"
#include "fuzz/differential.h"
#include "fuzz/gen.h"
#include "interp/interpreter.h"
#include "profile/bitwidth_profile.h"
#include "support/rng.h"
#include "transform/expander.h"
#include "transform/squeezer.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"

namespace bitspec
{
namespace
{

/** Generates a random program over u8/u16/u32 scalars and a byte
 *  array, with nested loops, branches and mixed-width arithmetic. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed) : rng_(seed) {}

    std::string
    generate()
    {
        src_ = "u8 mem[64];\n";
        src_ += "u32 main(u32 n) {\n";
        vars_ = {"n"};
        assignable_ = {"n"};
        // Seed the byte array deterministically in-program.
        src_ += "  for (u32 z = 0; z < 64; z++) mem[z] = "
                "(u8)(z * 37 + 11);\n";
        unsigned nvars = 3 + rng_.nextBelow(4);
        for (unsigned i = 0; i < nvars; ++i)
            emitDecl();
        unsigned nstmts = 4 + rng_.nextBelow(6);
        for (unsigned i = 0; i < nstmts; ++i)
            emitStmt(2);
        src_ += "  return " + pick() + " + " + pick() + ";\n}\n";
        return src_;
    }

  private:
    std::string
    pick()
    {
        return vars_[rng_.nextBelow(vars_.size())];
    }

    /** Assignment targets exclude loop induction variables (writing
     *  one could make the loop non-terminating). */
    std::string
    pickAssignable()
    {
        return assignable_[rng_.nextBelow(assignable_.size())];
    }

    std::string
    literal()
    {
        // Bias towards byte-range constants (narrowing targets).
        if (rng_.nextBelow(3) == 0)
            return std::to_string(rng_.nextBelow(100000));
        return std::to_string(rng_.nextBelow(256));
    }

    std::string
    expr(unsigned depth)
    {
        switch (rng_.nextBelow(depth == 0 ? 3 : 6)) {
          case 0:
            return pick();
          case 1:
            return literal();
          case 2:
            return "mem[(" + pick() + ") & 63]";
          case 3:
            return "(" + expr(depth - 1) + " " + binop() + " " +
                   expr(depth - 1) + ")";
          case 4:
            return "((" + expr(depth - 1) + ") " + shiftop() + " " +
                   std::to_string(1 + rng_.nextBelow(7)) + ")";
          default:
            return "((" + expr(depth - 1) + ") % " +
                   std::to_string(2 + rng_.nextBelow(254)) + ")";
        }
    }

    std::string
    binop()
    {
        const char *ops[] = {"+", "-", "*", "&", "|", "^"};
        return ops[rng_.nextBelow(6)];
    }

    std::string
    shiftop() { return rng_.nextBelow(2) ? "<<" : ">>"; }

    std::string
    relop()
    {
        const char *ops[] = {"<", "<=", ">", ">=", "==", "!="};
        return ops[rng_.nextBelow(6)];
    }

    std::string
    type()
    {
        const char *types[] = {"u8", "u16", "u32", "u32"};
        return types[rng_.nextBelow(4)];
    }

    void
    emitDecl()
    {
        std::string name = "v" + std::to_string(vars_.size());
        src_ += "  " + type() + " " + name + " = " + expr(2) + ";\n";
        vars_.push_back(name);
        assignable_.push_back(name);
    }

    void
    emitStmt(unsigned depth)
    {
        switch (rng_.nextBelow(depth == 0 ? 3 : 6)) {
          case 0:
            src_ += "  " + pickAssignable() + " = " + expr(2) + ";\n";
            return;
          case 1:
            src_ += "  " + pickAssignable() + " += " + expr(1) +
                    ";\n";
            return;
          case 2:
            src_ += "  mem[(" + expr(1) + ") & 63] = (u8)(" +
                    expr(1) + ");\n";
            return;
          case 3: {
            src_ += "  if ((" + pick() + " & 255) " + relop() + " " +
                    literal() + ") {\n";
            emitStmt(depth - 1);
            src_ += "  } else {\n";
            emitStmt(depth - 1);
            src_ += "  }\n";
            return;
          }
          case 4: {
            std::string iv = "i" + std::to_string(loops_++);
            src_ += "  for (u32 " + iv + " = 0; " + iv + " < " +
                    std::to_string(2 + rng_.nextBelow(30)) + "; " +
                    iv + "++) {\n";
            vars_.push_back(iv);
            emitStmt(depth - 1);
            emitStmt(depth - 1);
            vars_.pop_back(); // Scoped to the loop.
            src_ += "  }\n";
            return;
          }
          default:
            src_ += "  out(" + pick() + ");\n";
            return;
        }
    }

    Rng rng_;
    std::string src_;
    std::vector<std::string> vars_;
    std::vector<std::string> assignable_;
    unsigned loops_ = 0;
};

class FuzzDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzDifferential, AllExecutionModelsAgree)
{
    ProgramGen gen(GetParam());
    std::string src = gen.generate();
    SCOPED_TRACE(src);

    auto ref_mod = compileSource(src);
    Interpreter ref(*ref_mod);
    uint64_t want = truncTo(ref.run("main", {17}), 32);
    uint64_t want_sum = ref.outputChecksum();

    for (Heuristic h : {Heuristic::Max, Heuristic::Avg}) {
        auto mod = compileSource(src);
        ExpanderOptions eo;
        eo.unrollFactor = 2;
        expandModule(*mod, eo);
        BitwidthProfile profile;
        profile.profileRun(*mod, "main", {9});
        SqueezeOptions so;
        so.heuristic = h;
        squeezeModule(*mod, profile, so);

        // IR level, hardware misspeculation.
        Interpreter hw(*mod);
        EXPECT_EQ(truncTo(hw.run("main", {17}), 32), want);
        EXPECT_EQ(hw.outputChecksum(), want_sum);

        // IR level, forced misspeculation (Theorem 3.2).
        Interpreter forced(*mod);
        forced.setMisspecPolicy(MisspecPolicy::ForceFirst);
        EXPECT_EQ(truncTo(forced.run("main", {17}), 32), want);

        // Machine level, BitSpec ISA.
        CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
        PredecodedProgram pre(cp.program);
        FastCore core(pre, *mod);
        EXPECT_EQ(core.run({17}), want);
        EXPECT_EQ(core.outputChecksum(), want_sum);
    }

    // Machine level, plain ISAs on the unsqueezed module.
    for (TargetISA isa : {TargetISA::Baseline, TargetISA::Thumb}) {
        auto mod = compileSource(src);
        CompiledProgram cp = compileModule(*mod, isa);
        PredecodedProgram pre(cp.program);
        FastCore core(pre, *mod);
        EXPECT_EQ(core.run({17}), want);
        EXPECT_EQ(core.outputChecksum(), want_sum);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 41));

/** fuzz_spec's helper programs: the generated body as a helper main
 *  calls twice, built with the expander off by the differential,
 *  agrees on every run. */
TEST(FuzzHelperPrograms, HelperBodyCalledTwiceAgrees)
{
    ExperimentRunner runner(1);
    for (uint64_t seed = 0; seed < 16; seed += 4) {
        FuzzProgram p = generateProgram(seed);
        p.helperCalls = 2;
        const std::string src = p.render();
        SCOPED_TRACE(src);
        EXPECT_LT(src.find("u32 kernel() {\n"), src.find("u32 main() {\n"));
        EXPECT_TRUE(src.ends_with("  u32 r = 0;\n  r = r + kernel();\n"
                                  "  r = r + kernel();\n  return r;\n}\n"));
        const FuzzDiffResult r = runFuzzDifferential(p, runner);
        EXPECT_EQ(r.status, FuzzDiffStatus::Agree) << r.detail;
    }
}

} // namespace
} // namespace bitspec
