/**
 * @file
 * Train once, squeeze many: a System builds from a cloneModule copy
 * of a shared TrainedModule, so the copy must be indistinguishable
 * from the module it copies, and squeezing it under the re-keyed
 * profile must compile exactly what training and squeezing a module
 * of its own did. Checked on the 14 expanded workloads and on
 * generated fuzz programs under MAX/AVG/MIN and no-speculation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.h"
#include "frontend/irgen.h"
#include "fuzz/differential.h"
#include "fuzz/gen.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "ir/printer.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

/** Printer output, global images and addresses, and the per-
 *  instruction fields the printer leaves out. */
void
expectSameModule(const Module &a, const Module &b, const std::string &what)
{
    EXPECT_EQ(printModule(a), printModule(b)) << what;
    ASSERT_EQ(a.globals().size(), b.globals().size()) << what;
    for (size_t i = 0; i < a.globals().size(); ++i) {
        const Global &ga = *a.globals()[i];
        const Global &gb = *b.globals()[i];
        EXPECT_EQ(ga.data(), gb.data()) << what << " @" << ga.name();
        EXPECT_EQ(ga.address(), gb.address()) << what << " @" << ga.name();
    }
    ASSERT_EQ(a.functions().size(), b.functions().size()) << what;
    for (size_t f = 0; f < a.functions().size(); ++f) {
        const Function &fa = *a.functions()[f];
        const Function &fb = *b.functions()[f];
        ASSERT_EQ(fa.blocks().size(), fb.blocks().size()) << what;
        for (size_t k = 0; k < fa.blocks().size(); ++k) {
            const auto &ia = fa.blocks()[k]->insts();
            const auto &ib = fb.blocks()[k]->insts();
            ASSERT_EQ(ia.size(), ib.size()) << what;
            for (auto x = ia.begin(), y = ib.begin(); x != ia.end();
                 ++x, ++y) {
                EXPECT_EQ((*x)->id(), (*y)->id()) << what;
                EXPECT_EQ((*x)->srcLine(), (*y)->srcLine()) << what;
                EXPECT_EQ((*x)->specOrigBits(), (*y)->specOrigBits())
                    << what;
            }
        }
    }
}

struct Variant
{
    const char *name;
    SqueezeOptions opts;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    for (Heuristic h : {Heuristic::Max, Heuristic::Avg, Heuristic::Min}) {
        SqueezeOptions o;
        o.heuristic = h;
        out.push_back({heuristicName(h), o});
    }
    SqueezeOptions nospec;
    nospec.speculate = false;
    out.push_back({"no-spec", nospec});
    return out;
}

TrainedModule
train(const Workload &w)
{
    return TrainedModule(w.source, ExpanderOptions{},
                         [&w](Module &m) { w.setInput(m, 0); });
}

/** The pipeline before sharing: train one module of its own, then
 *  (when @p opts is set) squeeze it in place. */
std::unique_ptr<Module>
trainFresh(const Workload &w, const SqueezeOptions *opts = nullptr,
           SqueezeStats *stats = nullptr)
{
    std::unique_ptr<Module> m = compileSource(w.source);
    w.setInput(*m, 0);
    expandModule(*m, ExpanderOptions{});
    Interpreter interp(*m);
    BitwidthProfile profile;
    profile.profileRun(interp, "main");
    if (opts)
        *stats = squeezeModule(*m, profile, *opts);
    return m;
}

/** Clone fidelity, then each variant squeezed on a copy against a
 *  fresh training; the shared training must stay untouched. */
void
checkWorkload(const Workload &w)
{
    const TrainedModule trained = train(w);
    const std::string before = printModule(trained.module());
    expectSameModule(*cloneModule(trained.module()), trained.module(),
                     w.name + "/clone");

    {
        // The block-name uniquing state came along: a block added
        // under any existing name gets the same name on a copy as on
        // a module trained fresh.
        std::unique_ptr<Module> copy = cloneModule(trained.module());
        std::unique_ptr<Module> fresh = trainFresh(w);
        for (size_t i = 0; i < fresh->functions().size(); ++i) {
            Function &a = *copy->functions()[i];
            Function &b = *fresh->functions()[i];
            const size_t n = b.blocks().size();
            for (size_t k = 0; k < n; ++k) {
                const std::string base = b.blocks()[k]->name();
                EXPECT_EQ(a.addBlock(base)->name(),
                          b.addBlock(base)->name())
                    << w.name << "/" << b.name();
            }
        }
    }

    for (const Variant &v : variants()) {
        const std::string what = w.name + "/" + v.name;
        ValueMap map;
        std::unique_ptr<Module> copy =
            cloneModule(trained.module(), &map);
        const SqueezeStats shared = squeezeModule(
            *copy, trained.profile().rekeyed(map), v.opts);
        SqueezeStats fresh_stats;
        std::unique_ptr<Module> fresh = trainFresh(w, &v.opts, &fresh_stats);
        expectSameModule(*copy, *fresh, what);
        EXPECT_EQ(shared, fresh_stats) << what;
        EXPECT_EQ(printModule(trained.module()), before) << what;
    }
}

class TrainedModuleTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(TrainedModuleTest, CloneIsExactAndSqueezesLikeAFreshTraining)
{
    checkWorkload(getWorkload(GetParam()));
}

TEST_P(TrainedModuleTest, BaselineStepCountIsAPlainRunsSteps)
{
    const Workload &w = getWorkload(GetParam());
    System sys(w.source, SystemConfig::baseline(),
               [&w](Module &m) { w.setInput(m, 0); });

    std::unique_ptr<Module> m = compileSource(w.source);
    w.setInput(*m, 0);
    expandModule(*m, ExpanderOptions{});
    Interpreter plain(*m);
    plain.run("main");
    EXPECT_EQ(sys.profiledIrInstructions(), plain.stats().steps);
}

INSTANTIATE_TEST_SUITE_P(
    Mibench, TrainedModuleTest,
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

TEST(TrainedModuleFuzz, CloneIsExactAndSqueezesLikeAFreshTraining)
{
    for (uint64_t seed = 0; seed < 60; ++seed) {
        const Workload w = makeFuzzWorkload(generateProgram(seed));
        SCOPED_TRACE(w.source);
        checkWorkload(w);
    }
}

TEST(TrainedModule, RejectsOtherExpanderOptions)
{
    const Workload &w = getWorkload("CRC32");
    const TrainedModule trained = train(w);
    SystemConfig cfg = SystemConfig::bitspec();
    cfg.expander.unrollFactor = 1;
    EXPECT_THROW(System sys(trained, cfg), PanicError);
}

} // namespace
} // namespace bitspec
