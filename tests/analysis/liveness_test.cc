#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "../testutil.h"
#include "analysis/liveness.h"
#include "core/system.h"
#include "fuzz/differential.h"
#include "fuzz/gen.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

TEST(Liveness, ArgLiveIntoUse)
{
    Module m;
    Function *f = test::buildDiamond(m);
    Liveness lv(*f, false);
    // arg0 is used in entry, left and right.
    EXPECT_TRUE(lv.isLiveIn(f->arg(0), f->blocks()[1].get()));
    EXPECT_TRUE(lv.isLiveIn(f->arg(0), f->blocks()[2].get()));
    // Not live into merge (only the phi is).
    EXPECT_FALSE(lv.isLiveIn(f->arg(0), f->blocks()[3].get()));
}

TEST(Liveness, LoopCarriedValuesLiveAroundLoop)
{
    Module m;
    Function *f = test::buildSumTo(m);
    Liveness lv(*f, false);
    BasicBlock *body = f->blocks()[1].get();
    // i2/s2 feed the phis along the back edge: live-out of body.
    Instruction *s2 = nullptr;
    for (auto &inst : body->insts())
        if (inst->op() == Opcode::Add && !s2)
            s2 = inst.get();
    EXPECT_TRUE(lv.isLiveOut(s2, body));
}

TEST(Liveness, HandlerEdgesExtendLiveness)
{
    // A value used only by the handler must be live throughout the
    // region when SMIR handler edges are enabled (paper Eq. 2).
    Module m;
    Function *f = m.addFunction("g", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *spec = f->addBlock("spec");
    BasicBlock *exit = f->addBlock("exit");
    BasicBlock *handler = f->addBlock("handler");

    b.setInsertPoint(entry);
    Instruction *seed = b.add(f->arg(0), b.constI32(1));
    seed->setName("seed");
    b.br(spec);

    b.setInsertPoint(spec);
    Instruction *dummy = b.add(f->arg(0), b.constI32(2));
    b.br(exit);

    b.setInsertPoint(exit);
    b.ret(dummy);

    b.setInsertPoint(handler);
    b.ret(seed); // Handler consumes `seed`.

    SpecRegion *sr = f->addSpecRegion();
    sr->blocks.push_back(spec);
    sr->handler = handler;

    Liveness without(*f, false);
    EXPECT_FALSE(without.isLiveIn(seed, spec));
    Liveness with(*f, true);
    EXPECT_TRUE(with.isLiveIn(seed, spec));
    EXPECT_TRUE(with.isLiveOut(seed, entry));
}

TEST(Liveness, PhiInputsAttributedToEdges)
{
    Module m;
    Function *f = test::buildDiamond(m);
    Liveness lv(*f, false);
    BasicBlock *left = f->blocks()[1].get();
    BasicBlock *right = f->blocks()[2].get();
    // l is live-out of left (feeds the merge phi), but not of right.
    Instruction *l = nullptr;
    for (auto &inst : left->insts())
        if (inst->op() == Opcode::Add)
            l = inst.get();
    EXPECT_TRUE(lv.isLiveOut(l, left));
    EXPECT_FALSE(lv.isLiveOut(l, right));
}

TEST(Liveness, PhiInputDefinedAboveItsEdgeIsLiveThrough)
{
    // A phi input defined two blocks above its incoming edge is live
    // through the edge's source block, even though that block comes
    // before the phi's block and nothing else makes it live.
    Module m;
    Function *f = m.addFunction("through", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *mid = f->addBlock("mid");
    BasicBlock *merge = f->addBlock("merge");

    b.setInsertPoint(entry);
    Instruction *v = b.add(f->arg(0), b.constI32(1));
    b.br(mid);
    b.setInsertPoint(mid);
    b.br(merge);
    b.setInsertPoint(merge);
    Instruction *phi = b.phi(Type::i32(), "p");
    IRBuilder::addIncoming(phi, v, mid);
    b.ret(phi);

    Liveness lv(*f, false);
    EXPECT_TRUE(lv.isLiveOut(v, mid));
    EXPECT_TRUE(lv.isLiveIn(v, mid));
    EXPECT_TRUE(lv.isLiveOut(v, entry));
    EXPECT_FALSE(lv.isLiveIn(v, merge));
}

TEST(Liveness, SetsListValuesInIdOrder)
{
    // liveIn()/liveOut() list values by renumber() id: arguments
    // first, then block and instruction order, whatever order the
    // values were created in. The squeezer emits handler extensions
    // in this order, so it must not depend on heap addresses.
    Module m;
    Function *f = m.addFunction("order", Type::i32(),
                                {Type::i32(), Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *mid = f->addBlock("mid");
    BasicBlock *use = f->addBlock("use");

    // `z` is created first but sits after `x` and `y` in the layout.
    b.setInsertPoint(mid);
    Instruction *z = b.mul(f->arg(0), b.constI32(3));
    b.br(use);

    b.setInsertPoint(entry);
    Instruction *x = b.add(f->arg(1), b.constI32(1));
    Instruction *y = b.add(f->arg(0), b.constI32(2));
    b.br(mid);

    // Consumed in yet another order: z, arg1, x, arg0, y.
    b.setInsertPoint(use);
    Instruction *s = b.add(z, f->arg(1));
    s = b.add(s, x);
    s = b.add(s, f->arg(0));
    s = b.add(s, y);
    b.ret(s);

    Liveness lv(*f, false);
    using Values = std::vector<Value *>;
    EXPECT_EQ(lv.liveIn(use), (Values{f->arg(0), f->arg(1), x, y, z}));
    EXPECT_EQ(lv.liveOut(mid), lv.liveIn(use));
    EXPECT_EQ(lv.liveIn(mid), (Values{f->arg(0), f->arg(1), x, y}));
    EXPECT_EQ(lv.liveIn(entry), (Values{f->arg(0), f->arg(1)}));
    EXPECT_TRUE(lv.liveOut(use).empty());

    // The lists agree with the membership queries.
    for (Value *v : lv.liveIn(use))
        EXPECT_TRUE(lv.isLiveIn(v, use));
    EXPECT_FALSE(lv.isLiveIn(z, mid));
    // Constants, and blocks of other functions, are never live.
    EXPECT_FALSE(lv.isLiveIn(b.constI32(1), use));
    Module other;
    Function *g = test::buildDiamond(other);
    EXPECT_TRUE(lv.liveIn(g->entry()).empty());
    EXPECT_FALSE(lv.isLiveIn(f->arg(0), g->entry()));
}

/** The textbook pointer-set formulation, kept as an oracle. */
struct ReferenceLiveness
{
    std::map<const BasicBlock *, std::set<const Value *>> in, out;

    ReferenceLiveness(const Function &f, bool handler_edges)
    {
        auto tracked = [](const Value *v) {
            return v->isInstruction() ||
                   v->kind() == ValueKind::Argument;
        };
        std::map<const BasicBlock *, std::vector<BasicBlock *>> succs;
        for (const auto &bb : f.blocks()) {
            auto view = bb->successors();
            succs[bb.get()].assign(view.begin(), view.end());
        }
        if (handler_edges)
            for (const auto &sr : f.specRegions())
                for (BasicBlock *member : sr->blocks)
                    succs[member].push_back(sr->handler);
        std::map<const BasicBlock *, std::set<const Value *>> use, def,
            phi_use;
        for (const auto &bb : f.blocks()) {
            auto &u = use[bb.get()];
            auto &d = def[bb.get()];
            for (const auto &inst : bb->insts()) {
                for (size_t i = 0; i < inst->numOperands(); ++i) {
                    const Value *v = inst->operand(i);
                    if (!tracked(v))
                        continue;
                    if (inst->isPhi())
                        phi_use[inst->blockOperand(i)].insert(v);
                    else if (!d.count(v))
                        u.insert(v);
                }
                if (!inst->type().isVoid())
                    d.insert(inst.get());
            }
        }
        for (bool changed = true; changed;) {
            changed = false;
            for (auto it = f.blocks().rbegin(); it != f.blocks().rend();
                 ++it) {
                const BasicBlock *bb = it->get();
                std::set<const Value *> o = phi_use[bb];
                for (BasicBlock *s : succs[bb])
                    o.insert(in[s].begin(), in[s].end());
                std::set<const Value *> i = use[bb];
                for (const Value *v : o)
                    if (!def[bb].count(v))
                        i.insert(v);
                if (o != out[bb] || i != in[bb]) {
                    out[bb] = std::move(o);
                    in[bb] = std::move(i);
                    changed = true;
                }
            }
        }
    }
};

/** Every block's sets match the oracle and are listed in id order. */
void
expectMatchesReference(Function &f, const std::string &what)
{
    for (bool handler_edges : {false, true}) {
        Liveness lv(f, handler_edges);
        ReferenceLiveness ref(f, handler_edges);
        for (const auto &bb : f.blocks()) {
            for (bool in : {true, false}) {
                std::vector<Value *> got =
                    in ? lv.liveIn(bb.get()) : lv.liveOut(bb.get());
                const auto &want = in ? ref.in[bb.get()]
                                      : ref.out[bb.get()];
                EXPECT_EQ(std::set<const Value *>(got.begin(), got.end()),
                          want)
                    << what << " " << f.name() << " "
                    << (in ? "in " : "out ") << bb->name()
                    << (handler_edges ? " (handler edges)" : "");
                for (size_t k = 1; k < got.size(); ++k)
                    EXPECT_LT(f.valueId(got[k - 1]), f.valueId(got[k]))
                        << what << " " << bb->name();
            }
        }
    }
}

TEST(Liveness, MatchesSetReferenceOnSqueezedCode)
{
    // Squeezed functions carry loops, handler regions and repair phis
    // whose inputs sit far above their edges; generated programs add
    // shapes the 14 workloads lack.
    for (const Workload &w : mibenchSuite()) {
        System sys(w.source, SystemConfig::bitspec(),
                   [&w](Module &m) { w.setInput(m, 0); });
        for (const auto &f : sys.module().functions())
            expectMatchesReference(*f, w.name);
    }
    for (uint64_t seed = 40; seed < 100; ++seed) {
        const Workload w = makeFuzzWorkload(generateProgram(seed));
        System sys(w.source, SystemConfig::bitspec(Heuristic::Min),
                   [&w](Module &m) { w.setInput(m, 0); });
        for (const auto &f : sys.module().functions())
            expectMatchesReference(*f, "seed " + std::to_string(seed));
    }
}

} // namespace
} // namespace bitspec
