#include <gtest/gtest.h>

#include <algorithm>

#include "../testutil.h"
#include "ir/clone.h"
#include "ir/printer.h"

namespace bitspec
{
namespace
{

TEST(Clone, ClonesInstructionFlags)
{
    Module m;
    Function *f = test::buildSumTo(m);
    BasicBlock *body = f->blocks()[1].get();
    Instruction *add = nullptr;
    for (auto &inst : body->insts())
        if (inst->op() == Opcode::Add)
            add = inst.get();
    ASSERT_NE(add, nullptr);
    add->setSpeculative(true);
    add->setSpecOrigBits(32);
    add->setGuard(true);

    auto copy = cloneInstruction(add);
    EXPECT_EQ(copy->op(), Opcode::Add);
    EXPECT_TRUE(copy->isSpeculative());
    EXPECT_TRUE(copy->isGuard());
    EXPECT_EQ(copy->specOrigBits(), 32u);
    EXPECT_EQ(copy->numOperands(), 2u);
}

TEST(Clone, BlockCloneRemapsInternalReferences)
{
    Module m;
    Function *f = test::buildSumTo(m);
    std::vector<BasicBlock *> src;
    for (auto &bb : f->blocks())
        src.push_back(bb.get());
    size_t before = f->blocks().size();

    CloneMap map = cloneBlocks(src, f, ".c");
    EXPECT_EQ(f->blocks().size(), before * 2);

    // The cloned body's branch targets the cloned body, not the original.
    BasicBlock *body = src[1];
    BasicBlock *cbody = map.get(body);
    ASSERT_NE(cbody, body);
    auto succs = cbody->successors();
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], cbody);

    // Cloned phi's incoming blocks are also remapped.
    Instruction *cphi = cbody->phis()[0];
    for (BasicBlock *in : cphi->blockOperands())
        EXPECT_TRUE(in == map.get(src[0]) || in == cbody);
}

TEST(Clone, ExternalReferencesLeftAlone)
{
    Module m;
    Function *f = test::buildSumTo(m);
    BasicBlock *body = f->blocks()[1].get();
    // Clone only the exit block; its operand (s2, defined in body)
    // should still point at the original s2.
    BasicBlock *exit = f->blocks()[2].get();
    CloneMap map = cloneBlocks({exit}, f, ".c");
    BasicBlock *cexit = map.get(exit);
    Instruction *ret = cexit->terminator();
    Instruction *orig_ret = exit->terminator();
    EXPECT_EQ(ret->operand(0), orig_ret->operand(0));
    (void)body;
}

/**
 * A module exercising every part cloneModule must carry: a global
 * with an image and an address, a global ref, constants, a call, an
 * unnamed instruction (printed by id), a renamed argument, a
 * speculative region with a check and a handler, and a deleted block
 * whose name stays taken.
 */
std::unique_ptr<Module>
buildRichModule()
{
    auto m = std::make_unique<Module>();
    Global *g = m->addGlobal("tab", 8, 16);
    g->setElem(3, 0xab);
    m->layoutGlobals();
    Function *sumto = test::buildSumTo(*m);

    Function *f = m->addFunction("main", Type::i32(), {Type::i32()});
    f->arg(0)->setName("n");
    IRBuilder b(m.get());
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *spec = f->addBlock("spec");
    BasicBlock *handler = f->addBlock("spec.handler");
    BasicBlock *dead = f->addBlock("spec"); // Uniqued to "spec.0".
    f->removeBlocksIf([dead](BasicBlock *bb) { return bb == dead; });

    b.setInsertPoint(entry);
    Instruction *sum = b.call(sumto, {f->arg(0)});
    b.br(spec);
    b.setInsertPoint(spec);
    Instruction *v = b.load(Type::i8(), b.globalAddr(g));
    v->setSpeculative(true);
    v->setSpecOrigBits(32);
    // Unnamed, so printed by its renumber() id.
    Instruction *w = b.add(b.zext(v, Type::i32()), sum);
    b.ret(w);
    b.setInsertPoint(handler);
    b.ret(b.constI32(7));

    SpecRegion *sr = f->addSpecRegion();
    sr->blocks.push_back(spec);
    sr->handler = handler;
    sr->id = 4;
    sr->srcLine = 12;
    sr->checks.push_back(v);
    sr->leakSites = 1;
    f->renumber();
    return m;
}

TEST(CloneModule, CopyPrintsIdenticallyAndOwnsEverything)
{
    std::unique_ptr<Module> src = buildRichModule();
    const std::string before = printModule(*src);
    ValueMap map;
    std::unique_ptr<Module> copy = cloneModule(*src, &map);

    EXPECT_EQ(printModule(*copy), before);
    EXPECT_EQ(printModule(*src), before); // Source untouched.

    Global *g = copy->getGlobal("tab");
    ASSERT_NE(g, nullptr);
    EXPECT_NE(g, src->getGlobal("tab"));
    EXPECT_EQ(g->data(), src->getGlobal("tab")->data());
    EXPECT_EQ(g->address(), src->getGlobal("tab")->address());

    Function *main_fn = copy->getFunction("main");
    Function *src_main = src->getFunction("main");
    for (const auto &bb : main_fn->blocks()) {
        EXPECT_EQ(bb->parent(), main_fn);
        for (const auto &inst : bb->insts()) {
            EXPECT_EQ(inst->parent(), bb.get());
            if (inst->isCall()) {
                EXPECT_EQ(inst->callee(), copy->getFunction("sumto"));
            }
            for (Value *op : inst->operands()) {
                if (op->kind() == ValueKind::Constant) {
                    auto *c = static_cast<Constant *>(op);
                    EXPECT_EQ(c, copy->getConst(c->type(), c->value()));
                } else if (op->kind() == ValueKind::GlobalRef) {
                    EXPECT_EQ(static_cast<GlobalRef *>(op)->global(), g);
                } else {
                    EXPECT_NE(map.end(),
                              std::find_if(map.begin(), map.end(),
                                           [op](const auto &kv) {
                                               return kv.second == op;
                                           }));
                }
            }
        }
    }

    // Every argument and instruction is mapped onto the copy.
    size_t values = 0;
    for (const auto &f : src->functions())
        values += f->numArgs() + f->instructionCount();
    EXPECT_EQ(map.size(), values);
    EXPECT_EQ(map.at(src_main->arg(0)), main_fn->arg(0));

    ASSERT_EQ(main_fn->specRegions().size(), 1u);
    const SpecRegion &sr = *main_fn->specRegions()[0];
    const SpecRegion &src_sr = *src_main->specRegions()[0];
    ASSERT_EQ(sr.blocks.size(), 1u);
    EXPECT_EQ(sr.blocks[0]->parent(), main_fn);
    EXPECT_EQ(sr.blocks[0]->name(), "spec");
    EXPECT_EQ(sr.handler->name(), "spec.handler");
    EXPECT_EQ(sr.handler->parent(), main_fn);
    EXPECT_EQ(sr.id, 4);
    EXPECT_EQ(sr.srcLine, 12);
    EXPECT_EQ(sr.leakSites, 1);
    ASSERT_EQ(sr.checks.size(), 1u);
    EXPECT_EQ(sr.checks[0], map.at(src_sr.checks[0]));
    EXPECT_EQ(main_fn->valueId(main_fn->arg(0)),
              src_main->valueId(src_main->arg(0)));
}

TEST(CloneModule, CopyNamesNewBlocksAsTheSourceWould)
{
    // The second input renames the handler onto "spec": block names
    // need not be unique, only the names addBlock hands out are.
    for (bool renamed : {false, true}) {
        std::unique_ptr<Module> src = buildRichModule();
        Function *f = src->getFunction("main");
        if (renamed)
            f->blocks()[2]->setName("spec");
        std::unique_ptr<Module> copy = cloneModule(*src);
        Function *g = copy->getFunction("main");
        ASSERT_EQ(g->blocks().size(), f->blocks().size());
        for (size_t i = 0; i < f->blocks().size(); ++i)
            EXPECT_EQ(g->blocks()[i]->name(), f->blocks()[i]->name())
                << "block " << i << " renamed=" << renamed;
        // "spec.0" belonged to a deleted block: still taken on both.
        for (const char *base :
             {"spec", "spec", "entry", "fresh", "spec.0", "spec.handler"})
            EXPECT_EQ(f->addBlock(base)->name(),
                      g->addBlock(base)->name())
                << base << " renamed=" << renamed;
    }
}

TEST(CloneModule, CopiesAreIndependent)
{
    std::unique_ptr<Module> src = buildRichModule();
    const std::string before = printModule(*src);
    std::unique_ptr<Module> copy = cloneModule(*src);
    copy->getGlobal("tab")->setElem(0, 1);
    Function *f = copy->getFunction("sumto");
    f->blocks()[1]->insts().front()->setName("renamed");
    f->addBlock("extra");
    EXPECT_EQ(printModule(*src), before);
    EXPECT_EQ(src->getGlobal("tab")->elem(0), 0u);
}

} // namespace
} // namespace bitspec
