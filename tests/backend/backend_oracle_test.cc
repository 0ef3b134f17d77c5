/**
 * @file
 * Equivalence oracle and edge cases for the backend's linear
 * algorithms.
 *
 * computeMirLiveness walks back from each vreg's upward-exposed uses
 * instead of iterating per-block bitsets to a fixed point. This file
 * keeps the round-robin fixed point it replaced as a reference and
 * checks that both give every block the same live-in and live-out
 * vregs, handler edges (Eq. 2) included, on the MIR that instruction
 * selection hands the allocator for:
 *  - the 14 workloads under baseline, bitspec-max, bitspec-min and the
 *    Thumb-like ISA;
 *  - 200 generated programs under bitspec-max.
 *
 * Hand-built cases pin the rest of the backend's bookkeeping: the
 * one-pass critical-edge split (a CondBr with both edges into one phi
 * block splits once; two phi successors split in order, with the
 * names block-by-block rescanning gave), the successor view of each
 * terminator kind, and that selection leaves every instruction id as
 * it found it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/isel.h"
#include "backend/regalloc.h"
#include "core/system.h"
#include "fuzz/differential.h"
#include "fuzz/gen.h"
#include "ir/builder.h"
#include "ir/clone.h"
#include "ir/printer.h"
#include "support/bitset.h"
#include "../testutil.h"
#include "transform/squeezer.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

// ---------------------------------------------------------------------
// Reference: the round-robin bitset fixed point, kept verbatim in
// behaviour.
// ---------------------------------------------------------------------

template <typename Fn>
void
refForEachVReg(const MachInst &inst, Fn fn)
{
    bool dst_is_use = inst.op == MOp::STR || inst.op == MOp::STRH ||
                      inst.op == MOp::STRB || inst.op == MOp::STRB8;
    bool dst_also_use =
        ((inst.op == MOp::MOV || inst.op == MOp::MOV8) &&
         inst.cond != Cond::AL) ||
        inst.op == MOp::MOVT;
    if (inst.dst.isVReg())
        fn(inst.dst, !dst_is_use, dst_is_use || dst_also_use);
    if (inst.a.isVReg())
        fn(inst.a, false, true);
    if (inst.b.isVReg())
        fn(inst.b, false, true);
}

struct RefLiveness
{
    std::vector<BitSet> in, out;
};

/** Per-block use/def bitsets, then backward round-robin sweeps until
 *  no live-out set grows. */
RefLiveness
refLiveness(const MachFunction &mf)
{
    const size_t n = mf.blocks.size();
    std::vector<BitSet> use(n, BitSet(mf.numVRegs));
    std::vector<BitSet> def(n, BitSet(mf.numVRegs));
    for (const auto &mb : mf.blocks) {
        BitSet &u = use[mb.id];
        BitSet &d = def[mb.id];
        for (const auto &inst : mb.insts) {
            refForEachVReg(inst,
                           [&](const MOpnd &o, bool is_def, bool is_use) {
                               if (is_use && !d.test(o.vreg))
                                   u.set(o.vreg);
                               if (is_def)
                                   d.set(o.vreg);
                           });
        }
    }
    RefLiveness live{use, std::vector<BitSet>(n, BitSet(mf.numVRegs))};

    // Successors: the trailing branches' targets, last first, then
    // the region's handler.
    std::vector<std::vector<int>> succs(n);
    for (const auto &mb : mf.blocks) {
        for (auto it = mb.insts.rbegin();
             it != mb.insts.rend() && it->op == MOp::B; ++it)
            succs[mb.id].push_back(it->target);
        if (mb.handlerBlock >= 0)
            succs[mb.id].push_back(mb.handlerBlock);
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = n; b-- > 0;) {
            bool grew = false;
            for (int s : succs[b])
                grew |= live.out[b].unionWith(live.in[s]);
            if (grew) {
                live.in[b].unionWithDifference(live.out[b], def[b]);
                changed = true;
            }
        }
    }
    return live;
}

std::vector<uint32_t>
members(const BitSet &s)
{
    std::vector<uint32_t> out;
    s.forEach([&](size_t v) { out.push_back(static_cast<uint32_t>(v)); });
    return out;
}

std::string
list(const std::vector<uint32_t> &vs)
{
    std::string out;
    for (uint32_t v : vs)
        out += (out.empty() ? "" : " ") + std::to_string(v);
    return "{" + out + "}";
}

/** Every block's live-in and live-out from both must agree. */
void
expectSameLiveness(const MachFunction &mf, const std::string &label)
{
    const RefLiveness want = refLiveness(mf);
    const MirLiveness got = computeMirLiveness(mf);
    size_t diffs = 0;
    for (size_t b = 0; b < mf.blocks.size(); ++b) {
        const auto in = got.liveIn(b);
        const auto out = got.liveOut(b);
        const std::vector<uint32_t> got_in(in.begin(), in.end());
        const std::vector<uint32_t> got_out(out.begin(), out.end());
        const std::vector<uint32_t> want_in = members(want.in[b]);
        const std::vector<uint32_t> want_out = members(want.out[b]);
        if ((got_in != want_in || got_out != want_out) && diffs++ < 3)
            ADD_FAILURE() << label << ": " << mf.name << ":"
                          << mf.blocks[b].name << ": live-in "
                          << list(got_in) << ", reference "
                          << list(want_in) << "; live-out "
                          << list(got_out) << ", reference "
                          << list(want_out);
    }
    EXPECT_EQ(diffs, 0u) << label << ": " << mf.name;
}

/** What the backend selects for @p cfg, as System builds it: the
 *  trained module cloned, squeezed when the config squeezes, globals
 *  laid out, then every function through instruction selection. */
std::vector<MachFunction>
selectAll(const TrainedModule &trained, const SystemConfig &cfg)
{
    ValueMap copy_of;
    auto m = cloneModule(trained.module(), cfg.squeeze ? &copy_of : nullptr);
    if (cfg.squeeze)
        squeezeModule(*m, trained.profile().rekeyed(copy_of),
                      cfg.squeezeOpts);
    m->layoutGlobals();
    std::map<const Function *, int> ids;
    for (const auto &f : m->functions())
        ids[f.get()] = static_cast<int>(ids.size());
    std::vector<MachFunction> out;
    for (const auto &f : m->functions())
        out.push_back(selectFunction(*f, ids[f.get()], cfg.isa, ids));
    return out;
}

struct NamedConfig
{
    const char *name;
    SystemConfig config;
};

std::vector<NamedConfig>
workloadConfigs()
{
    SystemConfig thumb = SystemConfig::baseline();
    thumb.isa = TargetISA::Thumb;
    return {
        {"baseline", SystemConfig::baseline()},
        {"bitspec-max", SystemConfig::bitspec(Heuristic::Max)},
        {"bitspec-min", SystemConfig::bitspec(Heuristic::Min)},
        {"thumb", thumb},
    };
}

void
expectSameOnWorkload(const Workload &w,
                     const std::vector<NamedConfig> &configs)
{
    const TrainedModule trained(w.source, ExpanderOptions{},
                                [&w](Module &m) { w.setInput(m, 0); });
    for (const NamedConfig &nc : configs)
        for (const MachFunction &mf : selectAll(trained, nc.config))
            expectSameLiveness(mf, w.name + "/" + nc.name);
}

class MirLivenessOracle : public ::testing::TestWithParam<std::string>
{};

TEST_P(MirLivenessOracle, MatchesRoundRobinReference)
{
    expectSameOnWorkload(getWorkload(GetParam()), workloadConfigs());
}

INSTANTIATE_TEST_SUITE_P(
    Mibench, MirLivenessOracle,
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

/** 200 generated programs in four shards of 50 seeds. */
class MirLivenessFuzzOracle : public ::testing::TestWithParam<unsigned>
{};

TEST_P(MirLivenessFuzzOracle, MatchesRoundRobinReference)
{
    const std::vector<NamedConfig> configs = {
        {"bitspec-max", SystemConfig::bitspec(Heuristic::Max)}};
    for (uint64_t seed = GetParam() * 50; seed < GetParam() * 50 + 50;
         ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        expectSameOnWorkload(makeFuzzWorkload(generateProgram(seed)),
                             configs);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirLivenessFuzzOracle,
                         ::testing::Values(0u, 1u, 2u, 3u));

// ---------------------------------------------------------------------
// Hand-built cases.
// ---------------------------------------------------------------------

/** A handler edge alone keeps a value live: v is defined in the
 *  entry, read only by the handler, and the region block between them
 *  neither reads nor writes it. */
TEST(MirLivenessOracle, HandlerEdgeKeepsHandlerInputsLive)
{
    MachFunction mf;
    mf.name = "handler_edge";
    const uint32_t v = mf.newVReg(false);
    const uint32_t t = mf.newVReg(false);
    auto op = [](MOp o, MOpnd d, MOpnd a = {}) {
        MachInst i;
        i.op = o;
        i.dst = d;
        i.a = a;
        return i;
    };
    auto br = [](int target) {
        MachInst i;
        i.op = MOp::B;
        i.target = target;
        return i;
    };
    mf.blocks.resize(4);
    for (int b = 0; b < 4; ++b)
        mf.blocks[b].id = b;
    mf.blocks[0].name = "entry";
    mf.blocks[0].insts = {op(MOp::MOVW, MOpnd::makeVReg(v, false),
                             MOpnd::makeImm(7)),
                          br(1)};
    mf.blocks[1].name = "region";
    mf.blocks[1].handlerBlock = 2;
    mf.blocks[1].insts = {op(MOp::MOVW, MOpnd::makeVReg(t, false),
                             MOpnd::makeImm(1)),
                          br(3)};
    mf.blocks[2].name = "handler";
    mf.blocks[2].isHandler = true;
    mf.blocks[2].insts = {op(MOp::OUT, MOpnd{}, MOpnd::makeVReg(v, false)),
                          br(3)};
    mf.blocks[3].name = "exit";
    mf.blocks[3].insts = {op(MOp::BXLR, MOpnd{})};

    expectSameLiveness(mf, "hand-built");
    const MirLiveness live = computeMirLiveness(mf);
    ASSERT_EQ(live.liveIn(1).size(), 1u);
    EXPECT_EQ(live.liveIn(1)[0], v);
    ASSERT_EQ(live.liveOut(1).size(), 1u);
    EXPECT_EQ(live.liveOut(1)[0], v);
    EXPECT_TRUE(live.liveOut(2).empty());
}

/** entry: condbr c, A, A with A starting in a phi. */
Function *
buildDoubleEdgeIntoPhi(Module &m)
{
    Function *f = m.addFunction("twice", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *a = f->addBlock("A");
    b.setInsertPoint(entry);
    Instruction *c = b.icmp(CmpPred::ULT, f->arg(0), b.constI32(10));
    b.condBr(c, a, a);
    b.setInsertPoint(a);
    Instruction *phi = b.phi(Type::i32(), "p");
    IRBuilder::addIncoming(phi, f->arg(0), entry);
    IRBuilder::addIncoming(phi, f->arg(0), entry);
    b.ret(phi);
    return f;
}

std::map<const Function *, int>
idsOf(const Module &m)
{
    std::map<const Function *, int> ids;
    for (const auto &f : m.functions())
        ids[f.get()] = static_cast<int>(ids.size());
    return ids;
}

TEST(CriticalEdgeSplit, DoubleEdgeIntoPhiBlockSplitsOnce)
{
    Module m;
    Function *f = buildDoubleEdgeIntoPhi(m);
    const auto ids = idsOf(m);
    MachFunction mf = selectFunction(*f, 0, TargetISA::Baseline, ids);

    ASSERT_EQ(f->blocks().size(), 3u);
    BasicBlock *mid = f->blocks()[2].get();
    EXPECT_EQ(mid->name(), "entry.to.A");
    auto succs = f->entry()->successors();
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], mid);
    EXPECT_EQ(succs[1], mid);
    Instruction *phi = f->blocks()[1]->phis()[0];
    for (BasicBlock *in : phi->blockOperands())
        EXPECT_EQ(in, mid);
    EXPECT_EQ(mf.blocks.size(), 3u);
}

TEST(CriticalEdgeSplit, TwoPhiSuccessorsSplitInOrder)
{
    Module m;
    Function *f = m.addFunction("fork", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *left = f->addBlock("left");
    BasicBlock *right = f->addBlock("right");
    BasicBlock *merge = f->addBlock("merge");
    // A block already named as the first split would be: the split
    // takes the next free name, as it did when rescanning.
    BasicBlock *taken = f->addBlock("entry.to.left");

    b.setInsertPoint(entry);
    Instruction *c = b.icmp(CmpPred::ULT, f->arg(0), b.constI32(10));
    b.condBr(c, left, right);
    b.setInsertPoint(left);
    Instruction *lp = b.phi(Type::i32(), "lp");
    IRBuilder::addIncoming(lp, f->arg(0), entry);
    b.br(merge);
    b.setInsertPoint(right);
    Instruction *rp = b.phi(Type::i32(), "rp");
    IRBuilder::addIncoming(rp, b.constI32(3), entry);
    b.br(merge);
    b.setInsertPoint(merge);
    Instruction *mp = b.phi(Type::i32(), "mp");
    IRBuilder::addIncoming(mp, lp, left);
    IRBuilder::addIncoming(mp, rp, right);
    b.ret(mp);
    b.setInsertPoint(taken);
    b.ret(b.constI32(0));

    const auto ids = idsOf(m);
    MachFunction mf = selectFunction(*f, 0, TargetISA::Baseline, ids);

    ASSERT_EQ(f->blocks().size(), 7u);
    EXPECT_EQ(f->blocks()[5]->name(), "entry.to.left.0");
    EXPECT_EQ(f->blocks()[6]->name(), "entry.to.right");
    auto succs = entry->successors();
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], f->blocks()[5].get());
    EXPECT_EQ(succs[1], f->blocks()[6].get());
    EXPECT_EQ(lp->blockOperand(0), f->blocks()[5].get());
    EXPECT_EQ(rp->blockOperand(0), f->blocks()[6].get());
    // left and right each have one successor: merge's edges stay.
    EXPECT_EQ(mp->blockOperand(0), left);
    EXPECT_EQ(mp->blockOperand(1), right);
    ASSERT_EQ(mf.blocks.size(), 7u);
    EXPECT_EQ(mf.blocks[5].name, "entry.to.left.0");
    EXPECT_EQ(mf.blocks[6].name, "entry.to.right");
}

TEST(SuccessorView, EachTerminatorKind)
{
    Module m;
    Function *f = m.addFunction("kinds", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *two = f->addBlock("two");
    BasicBlock *done = f->addBlock("done");
    BasicBlock *open = f->addBlock("open");

    b.setInsertPoint(entry);
    b.br(two);
    b.setInsertPoint(two);
    Instruction *c = b.icmp(CmpPred::EQ, f->arg(0), b.constI32(0));
    b.condBr(c, done, open);
    b.setInsertPoint(done);
    b.ret(f->arg(0));
    b.setInsertPoint(open);
    b.add(f->arg(0), b.constI32(1)); // No terminator yet.

    auto br = entry->successors();
    ASSERT_EQ(br.size(), 1u);
    EXPECT_EQ(br[0], two);
    auto cond = two->successors();
    ASSERT_EQ(cond.size(), 2u);
    EXPECT_EQ(cond[0], done);
    EXPECT_EQ(cond[1], open);
    EXPECT_TRUE(done->successors().empty());
    EXPECT_TRUE(open->successors().empty());
    EXPECT_TRUE(f->addBlock("empty")->successors().empty());

    // The view reads the terminator in place.
    two->terminator()->setBlockOperand(1, entry);
    EXPECT_EQ(cond[1], entry);
    EXPECT_FALSE(entry->hasPhis());
}

/** Give every instruction of @p f a distinctive id; returns them. */
std::vector<std::pair<const Instruction *, unsigned>>
scrambleIds(Function &f)
{
    std::vector<std::pair<const Instruction *, unsigned>> ids;
    unsigned next = 1000;
    for (auto &bb : f.blocks())
        for (auto &inst : bb->insts()) {
            inst->setId(next += 7);
            ids.emplace_back(inst.get(), inst->id());
        }
    return ids;
}

TEST(ISelIds, SelectionLeavesInstructionIdsAsFound)
{
    for (TargetISA isa :
         {TargetISA::Baseline, TargetISA::BitSpec, TargetISA::Thumb}) {
        // No edge to split: the printed function is unchanged too.
        Module m;
        Function *f = test::buildDiamond(m);
        const auto before = scrambleIds(*f);
        const std::string printed = printFunction(*f);
        (void)selectFunction(*f, 0, isa, idsOf(m));
        for (const auto &[inst, id] : before)
            EXPECT_EQ(inst->id(), id);
        EXPECT_EQ(printFunction(*f), printed);

        // The loop's back edge is split: the instructions found keep
        // their ids.
        Module m2;
        Function *g = test::buildSumTo(m2);
        const auto before2 = scrambleIds(*g);
        (void)selectFunction(*g, 0, isa, idsOf(m2));
        EXPECT_EQ(g->blocks().size(), 4u);
        for (const auto &[inst, id] : before2)
            EXPECT_EQ(inst->id(), id);
    }
}

} // namespace
} // namespace bitspec
