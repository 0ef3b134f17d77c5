#include <gtest/gtest.h>

#include "../testutil.h"
#include "ir/builder.h"
#include "ir/module.h"

namespace bitspec
{
namespace
{

TEST(Type, Basics)
{
    EXPECT_TRUE(Type::voidTy().isVoid());
    EXPECT_TRUE(Type::i1().isBool());
    EXPECT_EQ(Type::i32().str(), "i32");
    EXPECT_EQ(Type::voidTy().str(), "void");
    EXPECT_EQ(Type::i8(), Type(8));
    EXPECT_NE(Type::i8(), Type::i16());
}

TEST(Module, ConstantsDeduplicated)
{
    Module m;
    Constant *a = m.getConst(Type::i32(), 7);
    Constant *b = m.getConst(Type::i32(), 7);
    Constant *c = m.getConst(Type::i8(), 7);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a->value(), 7u);
}

TEST(Module, ConstantsTruncatedToType)
{
    Module m;
    Constant *c = m.getConst(Type::i8(), 0x1ff);
    EXPECT_EQ(c->value(), 0xffu);
    // And it dedupes with the already-truncated one.
    EXPECT_EQ(c, m.getConst(Type::i8(), 0xff));
}

TEST(Module, GlobalLayout)
{
    Module m;
    Global *a = m.addGlobal("a", 8, 10);    // 10 bytes -> padded to 16.
    Global *b = m.addGlobal("b", 32, 4);    // 16 bytes.
    m.layoutGlobals();
    EXPECT_EQ(a->address(), Module::kGlobalBase);
    EXPECT_EQ(b->address(), Module::kGlobalBase + 16);
}

TEST(Global, ElementAccessLittleEndian)
{
    Module m;
    Global *g = m.addGlobal("g", 32, 4);
    g->setElem(1, 0xdeadbeef);
    EXPECT_EQ(g->elem(1), 0xdeadbeefu);
    EXPECT_EQ(g->data()[4], 0xef);
    EXPECT_EQ(g->data()[7], 0xde);
    g->clear();
    EXPECT_EQ(g->elem(1), 0u);
}

/** The message of the PanicError @p fn throws ("" if none). */
template <typename Fn>
std::string
panicMessage(Fn fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(Global, OutOfRangeAccessPanicsNamingTheGlobal)
{
    Module m;
    Global *g = m.addGlobal("img", 8, 4);
    EXPECT_EQ(panicMessage([&] { g->setElem(4, 1); }),
              "panic: global store out of range: img");
    EXPECT_EQ(panicMessage([&] { (void)g->elem(4); }),
              "panic: global load out of range: img");
    EXPECT_EQ(panicMessage([&] { g->setData(std::vector<uint8_t>(3)); }),
              "panic: global image size mismatch: img");
    // In range, nothing throws and the last element is writable.
    EXPECT_EQ(panicMessage([&] { g->setElem(3, 9); }), "");
    EXPECT_EQ(g->elem(3), 9u);
    EXPECT_EQ(panicMessage([&] { g->setData(std::vector<uint8_t>(4)); }),
              "");
}

TEST(Function, BuilderProducesWellFormedLoop)
{
    Module m;
    Function *f = test::buildSumTo(m);
    EXPECT_EQ(f->blocks().size(), 3u);
    EXPECT_EQ(f->entry()->name(), "entry");
    BasicBlock *body = f->blocks()[1].get();
    EXPECT_EQ(body->phis().size(), 2u);
    auto succs = body->successors();
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], body);
}

TEST(Function, ReplaceAllUses)
{
    Module m;
    Function *f = test::buildSumTo(m);
    BasicBlock *body = f->blocks()[1].get();
    Instruction *i_phi = body->phis()[0];
    Constant *c = m.getConst(Type::i32(), 99);
    f->replaceAllUses(i_phi, c);
    EXPECT_FALSE(f->hasUses(i_phi));
    EXPECT_TRUE(f->hasUses(c));
}

TEST(Function, RenumberAssignsDenseIds)
{
    Module m;
    Function *f = test::buildSumTo(m);
    unsigned n = f->renumber();
    // 1 arg + 7 instructions.
    EXPECT_EQ(n, 1u + f->instructionCount());
    EXPECT_EQ(f->valueId(f->arg(0)), 0u);
}

TEST(Function, PredecessorMap)
{
    Module m;
    Function *f = test::buildDiamond(m);
    auto preds = f->predecessors();
    BasicBlock *merge = f->blocks()[3].get();
    ASSERT_EQ(preds[merge].size(), 2u);
}

TEST(SpecRegion, RegionQueries)
{
    Module m;
    Function *f = test::buildSumTo(m);
    BasicBlock *body = f->blocks()[1].get();
    BasicBlock *handler = f->addBlock("handler");
    SpecRegion *sr = f->addSpecRegion();
    sr->blocks.push_back(body);
    sr->handler = handler;

    EXPECT_EQ(f->regionOf(body), sr);
    EXPECT_EQ(f->regionOf(f->entry()), nullptr);
    EXPECT_EQ(f->regionOfHandler(handler), sr);
    EXPECT_EQ(f->regionOfHandler(body), nullptr);
}

TEST(Instruction, PhiIncomingRemoval)
{
    Module m;
    Function *f = test::buildDiamond(m);
    BasicBlock *merge = f->blocks()[3].get();
    Instruction *phi = merge->phis()[0];
    ASSERT_EQ(phi->numOperands(), 2u);
    phi->removePhiIncoming(0);
    EXPECT_EQ(phi->numOperands(), 1u);
    EXPECT_EQ(phi->blockOperands().size(), 1u);
}

TEST(Instruction, SpeculativeFormTable)
{
    // Table 1 of the paper: add/sub/logic/cmp/load/store/trunc/ext have
    // speculative forms; mul/div/shift do not.
    EXPECT_TRUE(hasSpeculativeForm(Opcode::Add));
    EXPECT_TRUE(hasSpeculativeForm(Opcode::Sub));
    EXPECT_TRUE(hasSpeculativeForm(Opcode::And));
    EXPECT_TRUE(hasSpeculativeForm(Opcode::ICmp));
    EXPECT_TRUE(hasSpeculativeForm(Opcode::Load));
    EXPECT_TRUE(hasSpeculativeForm(Opcode::Trunc));
    EXPECT_FALSE(hasSpeculativeForm(Opcode::Mul));
    EXPECT_FALSE(hasSpeculativeForm(Opcode::UDiv));
    EXPECT_FALSE(hasSpeculativeForm(Opcode::Shl));
    EXPECT_FALSE(hasSpeculativeForm(Opcode::LShr));
}

} // namespace
} // namespace bitspec
