#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "transform/cfg_prep.h"
#include "transform/squeezer.h"

namespace bitspec
{
namespace
{

struct Squeezed
{
    std::unique_ptr<Module> module;
    SqueezeStats stats;
};

/** Compile, profile on a training run, squeeze. */
Squeezed
makeSqueezed(const std::string &src, const SqueezeOptions &opts,
             const std::vector<uint64_t> &train_args = {})
{
    Squeezed out;
    out.module = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*out.module, "main", train_args);
    out.stats = squeezeModule(*out.module, profile, opts);
    return out;
}

/** Differential check: original vs squeezed agree on return value and
 *  output stream for every given input. */
void
checkEquivalent(const std::string &src, const SqueezeOptions &opts,
                const std::vector<std::vector<uint64_t>> &inputs,
                const std::vector<uint64_t> &train_args = {})
{
    auto ref_mod = compileSource(src);
    auto sq = makeSqueezed(src, opts, train_args);

    for (const auto &args : inputs) {
        Interpreter ref(*ref_mod);
        uint64_t want = ref.run("main", args);

        Interpreter got(*sq.module);
        EXPECT_EQ(got.run("main", args), want);
        EXPECT_EQ(got.outputChecksum(), ref.outputChecksum());

        // Also with forced misspeculation (Theorem 3.2).
        Interpreter forced(*sq.module);
        forced.setMisspecPolicy(MisspecPolicy::ForceFirst);
        EXPECT_EQ(forced.run("main", args), want);
        EXPECT_EQ(forced.outputChecksum(), ref.outputChecksum());

        // And randomised misspeculation.
        Interpreter rnd(*sq.module);
        rnd.setMisspecPolicy(MisspecPolicy::Random);
        rnd.setRandomSeed(args.empty() ? 1 : args[0] + 99);
        EXPECT_EQ(rnd.run("main", args), want);
    }
}

TEST(CfgPrep, SplitsPerEquations)
{
    auto m = compileSource(R"(
        u32 a[4];
        u32 b[4];
        u32 f(u32 x) { return x; }
        u32 main() {
            u32 v = a[0];       // load
            b[0] = v;           // store: must split from the load
            u32 w = f(v);       // call: isolated
            return v + w;
        }
    )");
    Function *f = m->getFunction("main");
    unsigned before = f->blocks().size();
    prepareCFG(*f);
    EXPECT_GT(f->blocks().size(), before);
    EXPECT_TRUE(verifyFunction(*f).empty());

    for (auto &bb : f->blocks()) {
        bool has_load = false, has_store = false, has_call = false;
        unsigned nonterm = 0;
        for (auto &inst : bb->insts()) {
            if (inst->isTerm())
                continue;
            ++nonterm;
            has_load |= inst->op() == Opcode::Load;
            has_store |= inst->op() == Opcode::Store;
            has_call |= inst->isCall();
        }
        EXPECT_FALSE(has_load && has_store) << bb->name();
        if (has_call) {
            EXPECT_EQ(nonterm, 1u) << bb->name();
        }
    }

    // Semantics unchanged.
    Interpreter in(*m);
    EXPECT_EQ(in.run("main"), 0u);
}

TEST(Squeezer, PaperWalkthroughCounter)
{
    // §3 of the paper: with the AVG selection the loop runs at 8 bits,
    // the compare against 255 is eliminated, the add misspeculates at
    // x == 255 and the handler finishes at 32 bits.
    const char *src =
        "u32 main() { u32 x = 0; do { x += 1; } while (x <= 255); "
        "return x; }";
    SqueezeOptions opts;
    opts.heuristic = Heuristic::Avg;
    auto sq = makeSqueezed(src, opts);

    EXPECT_GT(sq.stats.narrowed, 0u);
    EXPECT_GT(sq.stats.regions, 0u);
    EXPECT_GE(sq.stats.comparesEliminated, 1u);

    Interpreter in(*sq.module);
    EXPECT_EQ(in.run("main"), 256u);
    EXPECT_EQ(in.stats().misspeculations, 1u);
}

TEST(Squeezer, MaxHeuristicAvoidsMisspeculation)
{
    // Values stay in [0, 200]: MAX selects 8 bits and never
    // misspeculates at runtime on the same input.
    const char *src = R"(
        u32 main() {
            u32 s = 0;
            for (u32 i = 0; i < 200; i++) s = (s + i) % 251;
            return s;
        }
    )";
    SqueezeOptions opts; // MAX
    auto sq = makeSqueezed(src, opts);
    EXPECT_GT(sq.stats.narrowed, 0u);

    auto ref = compileSource(src);
    Interpreter r(*ref);
    Interpreter in(*sq.module);
    EXPECT_EQ(in.run("main"), r.run("main"));
    EXPECT_EQ(in.stats().misspeculations, 0u);
}

TEST(Squeezer, MinHeuristicMisspeculatesMore)
{
    // MIN selects the smallest width ever seen; larger values then
    // misspeculate (paper Table 2 trend).
    const char *src = R"(
        u8 data[64];
        u32 main() {
            u32 s = 0;
            for (u32 i = 0; i < 64; i++) s += data[i];
            return s;
        }
    )";
    auto mod = compileSource(src);
    Global *g = mod->getGlobal("data");
    for (size_t i = 0; i < 64; ++i)
        g->setElem(i, 200); // Sum reaches 12800: needs 14 bits.

    BitwidthProfile profile;
    profile.profileRun(*mod, "main", {});

    SqueezeOptions min_opts;
    min_opts.heuristic = Heuristic::Min;
    squeezeModule(*mod, profile, min_opts);

    Interpreter in(*mod);
    EXPECT_EQ(in.run("main"), 200u * 64);
    EXPECT_GE(in.stats().misspeculations, 1u);
}

TEST(Squeezer, DifferentialAllHeuristics)
{
    // A kernel with byte-ish values and occasional outliers.
    const char *src = R"(
        u8 buf[32] = "the quick brown fox jumps over";
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 i = 0; i < n; i++) {
                u32 c = buf[i % 30];
                h = (h * 31 + c) % 1000;
                if (c == 'q') h += 500;
            }
            return h;
        }
    )";
    for (Heuristic h : {Heuristic::Max, Heuristic::Avg, Heuristic::Min}) {
        SqueezeOptions opts;
        opts.heuristic = h;
        checkEquivalent(src, opts, {{0}, {1}, {5}, {30}, {200}}, {30});
    }
}

TEST(Squeezer, DifferentialRunInputLargerThanTraining)
{
    // Profile on a small input, run on one that overflows the
    // speculative widths: correctness must come from the handlers.
    const char *src = R"(
        u32 main(u32 n) {
            u32 sum = 0;
            u32 i = 0;
            while (i < n) {
                sum += i;
                i += 1;
            }
            return sum;
        }
    )";
    SqueezeOptions opts;
    opts.heuristic = Heuristic::Avg;
    checkEquivalent(src, opts, {{4}, {10}, {100}, {1000}}, {10});
}

TEST(Squeezer, StoresAndOutputsStayCorrect)
{
    const char *src = R"(
        u8 in[16] = "abcdefghijklmno";
        u8 tmp[16];
        u32 main() {
            for (u32 i = 0; i < 15; i++) tmp[i] = in[14 - i];
            u32 acc = 0;
            for (u32 i = 0; i < 15; i++) { out(tmp[i]); acc += tmp[i]; }
            return acc;
        }
    )";
    SqueezeOptions opts;
    checkEquivalent(src, opts, {{}});
}

TEST(Squeezer, CallsArePreserved)
{
    const char *src = R"(
        u32 mix(u32 a, u32 b) { return (a * 7 + b) % 256; }
        u32 main(u32 n) {
            u32 x = 3;
            for (u32 i = 0; i < n; i++) x = mix(x, i);
            return x;
        }
    )";
    SqueezeOptions opts;
    checkEquivalent(src, opts, {{0}, {7}, {50}}, {10});
}

TEST(Squeezer, ExactModeNeedsNoRegions)
{
    const char *src = R"(
        u32 main(u32 n) {
            u32 s = 0;
            for (u32 i = 0; i < n; i++)
                s = (s + (i & 0xff)) & 0xff;
            return s;
        }
    )";
    SqueezeOptions opts;
    opts.speculate = false;
    auto sq = makeSqueezed(src, opts, {16});
    EXPECT_GT(sq.stats.narrowed, 0u);
    EXPECT_EQ(sq.stats.regions, 0u);
    EXPECT_EQ(sq.stats.specTruncs, 0u);

    checkEquivalent(src, opts, {{0}, {3}, {1000}}, {16});
}

TEST(Squeezer, ExactModeFindsNothingWithoutMasks)
{
    // Without masks/truncs the demanded width stays high (the sha
    // effect from paper §2.2).
    const char *src = R"(
        u32 main(u32 n) {
            u32 s = 1;
            for (u32 i = 0; i < n; i++)
                s = (s << 5) | (s >> 27);
            return s;
        }
    )";
    SqueezeOptions opts;
    opts.speculate = false;
    auto sq = makeSqueezed(src, opts, {4});
    EXPECT_EQ(sq.stats.narrowed, 0u);
}

TEST(Squeezer, BitmaskElisionAblation)
{
    // rijndael-style table indexing: `x & 0xff` feeds everything.
    const char *src = R"(
        u8 sbox[256];
        u32 main(u32 n) {
            u32 state = 0x01020304;
            u32 acc = 0;
            for (u32 i = 0; i < n; i++) {
                u32 b0 = state & 0xff;
                acc += sbox[b0];
                state = state * 1103515245 + 12345;
            }
            return acc;
        }
    )";
    auto with = makeSqueezed(src, SqueezeOptions{}, {16});
    SqueezeOptions no_elide;
    no_elide.bitmaskElision = false;
    auto without = makeSqueezed(src, no_elide, {16});
    EXPECT_GT(with.stats.bitmasksElided, 0u);
    EXPECT_EQ(without.stats.bitmasksElided, 0u);

    // Both remain correct.
    SqueezeOptions opts;
    checkEquivalent(src, opts, {{1}, {16}, {64}}, {16});
    checkEquivalent(src, no_elide, {{1}, {16}, {64}}, {16});
}

TEST(Squeezer, CompareEliminationAblation)
{
    const char *src =
        "u32 main() { u32 x = 0; do { x += 1; } while (x <= 255); "
        "return x; }";
    SqueezeOptions with;
    with.heuristic = Heuristic::Avg;
    SqueezeOptions without = with;
    without.compareElimination = false;

    auto a = makeSqueezed(src, with);
    auto b = makeSqueezed(src, without);
    EXPECT_GE(a.stats.comparesEliminated, 1u);
    EXPECT_EQ(b.stats.comparesEliminated, 0u);

    Interpreter ia(*a.module), ib(*b.module);
    EXPECT_EQ(ia.run("main"), 256u);
    EXPECT_EQ(ib.run("main"), 256u);
}

TEST(Squeezer, VerifierHoldsOnAllConfigs)
{
    const char *src = R"(
        u8 key[8] = "k3y";
        u8 data[64];
        u32 main(u32 n) {
            u32 h = 5381;
            for (u32 i = 0; i < n; i++) {
                data[i % 64] = (h ^ key[i % 3]) & 0xff;
                h = h * 33 + data[i % 64];
            }
            u32 s = 0;
            for (u32 i = 0; i < 64; i++) s += data[i];
            return s;
        }
    )";
    for (Heuristic h : {Heuristic::Max, Heuristic::Avg, Heuristic::Min}) {
        for (bool ce : {true, false}) {
            for (bool be : {true, false}) {
                SqueezeOptions opts;
                opts.heuristic = h;
                opts.compareElimination = ce;
                opts.bitmaskElision = be;
                auto sq = makeSqueezed(src, opts, {40});
                EXPECT_TRUE(verifyModule(*sq.module).empty());
                Interpreter in(*sq.module);
                auto ref_mod = compileSource(src);
                Interpreter ref(*ref_mod);
                EXPECT_EQ(in.run("main", {100}), ref.run("main", {100}));
            }
        }
    }
}

} // namespace
} // namespace bitspec
