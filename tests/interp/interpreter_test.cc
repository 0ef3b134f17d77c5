#include <gtest/gtest.h>

#include "../testutil.h"
#include "interp/interpreter.h"

namespace bitspec
{
namespace
{

TEST(Interp, SumToLoop)
{
    Module m;
    test::buildSumTo(m);
    Interpreter in(m);
    EXPECT_EQ(in.run("sumto", {10}), 45u);
    EXPECT_GT(in.stats().steps, 10u);
}

TEST(Interp, PaperCounterRuns256Iterations)
{
    Module m;
    test::buildPaperCounter(m);
    Interpreter in(m);
    EXPECT_EQ(in.run("counter", {}), 256u);
}

TEST(Interp, DiamondBothPaths)
{
    Module m;
    test::buildDiamond(m);
    Interpreter in(m);
    EXPECT_EQ(in.run("diamond", {5}), 105u);  // left: +100
    EXPECT_EQ(in.run("diamond", {20}), 60u);  // right: *3
}

TEST(Interp, WidthWrapping)
{
    // i8 add wraps at 256.
    Module m;
    Function *f = m.addFunction("wrap", Type::i8(), {Type::i8()});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *v = b.add(f->arg(0), m.getConst(Type::i8(), 200));
    b.ret(v);
    Interpreter in(m);
    EXPECT_EQ(in.run("wrap", {100}), (100u + 200u) & 0xff);
}

TEST(Interp, SignedOps)
{
    Module m;
    Function *f = m.addFunction("sdiv7", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *v = b.sdiv(f->arg(0), b.constI32(7));
    b.ret(v);
    Interpreter in(m);
    // -21 / 7 == -3 (trunc toward zero).
    uint64_t neg21 = truncTo(static_cast<uint64_t>(-21), 32);
    EXPECT_EQ(in.run("sdiv7", {neg21}),
              truncTo(static_cast<uint64_t>(-3), 32));
}

TEST(Interp, ShiftEdgeCases)
{
    Module m;
    Function *f = m.addFunction("sh", Type::i32(),
                                {Type::i32(), Type::i32()});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *v = b.ashr(f->arg(0), f->arg(1));
    b.ret(v);
    Interpreter in(m);
    uint64_t neg = truncTo(static_cast<uint64_t>(-16), 32);
    EXPECT_EQ(in.run("sh", {neg, 2}),
              truncTo(static_cast<uint64_t>(-4), 32));
    // Shift by >= width: arithmetic fills with sign.
    EXPECT_EQ(in.run("sh", {neg, 40}), 0xffffffffu);
    EXPECT_EQ(in.run("sh", {16, 40}), 0u);
}

TEST(Interp, MemoryAndGlobals)
{
    Module m;
    Global *g = m.addGlobal("buf", 32, 8);
    g->setElem(3, 777);
    Function *f = m.addFunction("rd", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *off = b.mul(f->arg(0), b.constI32(4));
    Instruction *addr = b.add(b.globalAddr(g), off);
    Instruction *v = b.load(Type::i32(), addr);
    b.ret(v);
    Interpreter in(m);
    EXPECT_EQ(in.run("rd", {3}), 777u);
    EXPECT_EQ(in.run("rd", {0}), 0u);
}

TEST(Interp, StoreThenLoadRoundTrip)
{
    Module m;
    Global *g = m.addGlobal("buf", 16, 4);
    Function *f = m.addFunction("wr", Type::i16(), {Type::i16()});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    b.store(b.globalAddr(g), f->arg(0));
    Instruction *v = b.load(Type::i16(), b.globalAddr(g));
    b.ret(v);
    Interpreter in(m);
    EXPECT_EQ(in.run("wr", {0xbeef}), 0xbeefu);
}

TEST(Interp, ResetZeroesMemoryAndReloadsGlobals)
{
    Module m;
    Global *g = m.addGlobal("buf", 32, 2);
    g->setElem(1, 777);
    Interpreter in(m);
    const uint32_t global = g->address() + 4;
    // The last word of memory: a page the constructor never wrote.
    const uint32_t far = Interpreter::kDefaultMemBytes - 8;
    EXPECT_EQ(in.loadMem(global, 32), 777u);
    EXPECT_EQ(in.loadMem(far, 64), 0u);

    in.storeMem(global, 5, 32);
    in.storeMem(far, 0x1234, 64);
    in.reset();
    EXPECT_EQ(in.loadMem(global, 32), 777u);
    EXPECT_EQ(in.loadMem(far, 64), 0u);
}

TEST(Interp, MemBoundsGuardDoesNotWrapAt32Bits)
{
    // Regression: `addr + bytes` was computed in 32 bits, so an access
    // near UINT32_MAX wrapped past the guard and read out of bounds.
    Module m;
    Interpreter in(m);
    EXPECT_THROW(in.loadMem(0xfffffffcu, 64), FatalError);
    EXPECT_THROW(in.storeMem(0xfffffffcu, 0, 64), FatalError);
    EXPECT_THROW(in.loadMem(0xffffffffu, 8), FatalError);
    EXPECT_THROW(in.storeMem(0xffffffffu, 0, 8), FatalError);
}

TEST(Interp, PhiParallelCopySwapCycle)
{
    // Two phis that exchange values each iteration form a parallel-copy
    // cycle; the interpreter must break it through its scratch slot.
    Module m;
    Function *f = m.addFunction("swap", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *loop = f->addBlock("loop");
    BasicBlock *exit = f->addBlock("exit");
    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction *x = b.phi(Type::i32(), "x");
    Instruction *y = b.phi(Type::i32(), "y");
    Instruction *i = b.phi(Type::i32(), "i");
    Instruction *inext = b.add(i, b.constI32(1));
    Instruction *done = b.icmp(CmpPred::UGE, inext, f->arg(0));
    b.condBr(done, exit, loop);
    IRBuilder::addIncoming(x, b.constI32(1), entry);
    IRBuilder::addIncoming(x, y, loop);
    IRBuilder::addIncoming(y, b.constI32(2), entry);
    IRBuilder::addIncoming(y, x, loop);
    IRBuilder::addIncoming(i, b.constI32(0), entry);
    IRBuilder::addIncoming(i, inext, loop);
    b.setInsertPoint(exit);
    b.ret(b.add(b.mul(x, b.constI32(100)), y));

    Interpreter in(m);
    // n=3: two swaps, back to (1, 2); n=4: three swaps, (2, 1).
    EXPECT_EQ(in.run("swap", {3}), 102u);
    EXPECT_EQ(in.run("swap", {4}), 201u);
}

TEST(Interp, InvalidateRefreshesDecodedCache)
{
    Module m;
    Function *f = m.addFunction("f", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *v = b.add(f->arg(0), b.constI32(1));
    b.ret(v);
    Interpreter in(m);
    EXPECT_EQ(in.run("f", {41}), 42u);
    // Mutating the module leaves the decoded cache stale until
    // invalidate() — the documented contract with transform/.
    v->setOperand(1, m.getConst(Type::i32(), 2));
    EXPECT_EQ(in.run("f", {41}), 42u);
    in.invalidate();
    EXPECT_EQ(in.run("f", {41}), 43u);
}

TEST(Interp, CallsAndRecursion)
{
    // fib(n) via naive recursion.
    Module m;
    Function *fib = m.addFunction("fib", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = fib->addBlock("entry");
    BasicBlock *base = fib->addBlock("base");
    BasicBlock *rec = fib->addBlock("rec");
    b.setInsertPoint(entry);
    Instruction *small = b.icmp(CmpPred::ULT, fib->arg(0), b.constI32(2));
    b.condBr(small, base, rec);
    b.setInsertPoint(base);
    b.ret(fib->arg(0));
    b.setInsertPoint(rec);
    Instruction *n1 = b.sub(fib->arg(0), b.constI32(1));
    Instruction *n2 = b.sub(fib->arg(0), b.constI32(2));
    Instruction *f1 = b.call(fib, {n1});
    Instruction *f2 = b.call(fib, {n2});
    b.ret(b.add(f1, f2));

    Interpreter in(m);
    EXPECT_EQ(in.run("fib", {10}), 55u);
    EXPECT_GT(in.stats().calls, 100u);
}

TEST(Interp, OutputStreamAndChecksum)
{
    Module m;
    Function *f = m.addFunction("emit", Type::voidTy(), {});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    b.output(b.constI32(1));
    b.output(b.constI32(2));
    b.ret();
    Interpreter in(m);
    in.run("emit");
    ASSERT_EQ(in.output().size(), 2u);
    EXPECT_EQ(in.output()[0], 1u);
    uint64_t sum1 = in.outputChecksum();
    in.reset();
    EXPECT_TRUE(in.output().empty());
    in.run("emit");
    EXPECT_EQ(in.outputChecksum(), sum1);
}

TEST(Interp, FuelLimitStopsRunaway)
{
    Module m;
    Function *f = m.addFunction("spin", Type::voidTy(), {});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    b.br(bb);
    Interpreter in(m);
    in.setFuel(1000);
    EXPECT_THROW(in.run("spin"), FatalError);
}

TEST(Interp, OnAssignHookSeesValues)
{
    Module m;
    test::buildSumTo(m);
    Interpreter in(m);
    uint64_t max_seen = 0;
    uint64_t count = 0;
    in.onAssign = [&](const Instruction *, uint64_t v) {
        max_seen = std::max(max_seen, v);
        ++count;
    };
    in.run("sumto", {10});
    EXPECT_EQ(max_seen, 45u);
    EXPECT_GT(count, 20u);
}

// --- Speculative execution semantics (Table 1) ---

/** Build the squeezed version of the paper's counter by hand (the §3
 *  walkthrough): spec i8 loop + handler + original-width loop. */
Function *
buildSqueezedCounter(Module &m)
{
    Function *f = m.addFunction("squeezed", Type::i32(), {});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("ENTRY");
    BasicBlock *body = f->addBlock("BODY");
    BasicBlock *exit = f->addBlock("EXIT");
    BasicBlock *handler = f->addBlock("HANDLER");
    BasicBlock *body2 = f->addBlock("BODY2");
    BasicBlock *exit2 = f->addBlock("EXIT2");

    b.setInsertPoint(entry);
    b.br(body);

    // Speculative 8-bit loop.
    b.setInsertPoint(body);
    Instruction *x0 = b.phi(Type::i8(), "x0");
    Instruction *x1 = b.add(x0, m.getConst(Type::i8(), 1));
    x1->setName("x1");
    x1->setSpeculative(true);
    x1->setSpecOrigBits(32);
    // Compare vs 255 folds away at 8 bits (paper §3.2.4); the loop
    // repeats until the add misspeculates.
    b.br(body);
    IRBuilder::addIncoming(x0, m.getConst(Type::i8(), 0), entry);
    IRBuilder::addIncoming(x0, x1, body);

    b.setInsertPoint(exit);
    Instruction *xw = b.zext(x1, Type::i32());
    b.ret(xw);

    // Handler: extend live-ins (x0) and jump to original-width loop.
    b.setInsertPoint(handler);
    Instruction *x2 = b.zext(x0, Type::i32());
    x2->setName("x2");
    b.br(body2);

    b.setInsertPoint(body2);
    Instruction *x3 = b.phi(Type::i32(), "x3");
    Instruction *x4 = b.add(x3, b.constI32(1));
    x4->setName("x4");
    Instruction *chk = b.icmp(CmpPred::ULE, x4, b.constI32(255));
    b.condBr(chk, body2, exit2);
    IRBuilder::addIncoming(x3, x2, handler);
    IRBuilder::addIncoming(x3, x4, body2);

    b.setInsertPoint(exit2);
    b.ret(x4);

    SpecRegion *sr = f->addSpecRegion();
    sr->blocks.push_back(body);
    sr->handler = handler;
    return f;
}

TEST(InterpSpec, MisspeculationRedirectsToHandler)
{
    Module m;
    buildSqueezedCounter(m);
    Interpreter in(m);
    // Exactly the paper's table: x0 reaches 255, the add misspeculates,
    // the handler extends, BODY2 computes 256 and exits.
    EXPECT_EQ(in.run("squeezed", {}), 256u);
    EXPECT_EQ(in.stats().misspeculations, 1u);
}

TEST(InterpSpec, SpecLoadChecksOriginalWidth)
{
    Module m;
    Global *g = m.addGlobal("buf", 32, 2);
    g->setElem(0, 200);   // Fits in 8 bits.
    g->setElem(1, 1000);  // Does not fit.

    Function *f = m.addFunction("ld", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *spec = f->addBlock("spec");
    BasicBlock *done = f->addBlock("done");
    BasicBlock *handler = f->addBlock("handler");
    BasicBlock *orig = f->addBlock("orig");

    b.setInsertPoint(entry);
    Instruction *off = b.mul(f->arg(0), b.constI32(4));
    Instruction *addr = b.add(b.globalAddr(g), off);
    b.br(spec);

    b.setInsertPoint(spec);
    Instruction *v8 = b.load(Type::i8(), addr);
    v8->setSpeculative(true);
    v8->setSpecOrigBits(32);
    b.br(done);

    b.setInsertPoint(done);
    Instruction *vw = b.zext(v8, Type::i32());
    b.ret(vw);

    b.setInsertPoint(handler);
    b.br(orig);
    b.setInsertPoint(orig);
    Instruction *v32 = b.load(Type::i32(), addr);
    Instruction *plus = b.add(v32, b.constI32(0));
    b.ret(plus);

    SpecRegion *sr = f->addSpecRegion();
    sr->blocks.push_back(spec);
    sr->handler = handler;

    Interpreter in(m);
    EXPECT_EQ(in.run("ld", {0}), 200u);
    EXPECT_EQ(in.stats().misspeculations, 0u);
    EXPECT_EQ(in.run("ld", {1}), 1000u);
    EXPECT_EQ(in.stats().misspeculations, 1u);
}

TEST(InterpSpec, SpecSubUnderflowMisspeculates)
{
    Module m;
    Function *f = m.addFunction("ss", Type::i32(),
                                {Type::i8(), Type::i8()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *spec = f->addBlock("spec");
    BasicBlock *done = f->addBlock("done");
    BasicBlock *handler = f->addBlock("handler");
    BasicBlock *orig = f->addBlock("orig");

    b.setInsertPoint(entry);
    b.br(spec);

    b.setInsertPoint(spec);
    Instruction *d = b.sub(f->arg(0), f->arg(1));
    d->setSpeculative(true);
    d->setSpecOrigBits(32);
    b.br(done);

    b.setInsertPoint(done);
    b.ret(b.zext(d, Type::i32()));

    b.setInsertPoint(handler);
    b.br(orig);
    b.setInsertPoint(orig);
    Instruction *a32 = b.zext(f->arg(0), Type::i32());
    Instruction *b32 = b.zext(f->arg(1), Type::i32());
    b.ret(b.sub(a32, b32));

    SpecRegion *sr = f->addSpecRegion();
    sr->blocks.push_back(spec);
    sr->handler = handler;

    Interpreter in(m);
    EXPECT_EQ(in.run("ss", {9, 5}), 4u);
    EXPECT_EQ(in.stats().misspeculations, 0u);
    // 5 - 9 underflows the slice: handler computes the 32-bit result.
    EXPECT_EQ(in.run("ss", {5, 9}), truncTo(static_cast<uint64_t>(-4), 32));
    EXPECT_EQ(in.stats().misspeculations, 1u);
}

TEST(InterpSpec, ForceFirstPolicyStillProducesCorrectResult)
{
    // Theorem 3.2 exercised: forcing a misspeculation even when the
    // value fits must not change the program result.
    Module m;
    buildSqueezedCounter(m);
    Interpreter in(m);
    in.setMisspecPolicy(MisspecPolicy::ForceFirst);
    EXPECT_EQ(in.run("squeezed", {}), 256u);
    EXPECT_GE(in.stats().misspeculations, 1u);
}

} // namespace
} // namespace bitspec
