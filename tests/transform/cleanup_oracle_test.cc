/**
 * @file
 * Equivalence oracles for the compile path's linear algorithms.
 *
 * simplifyTrivialPhis, deadCodeElim and the known-bits fixed point
 * each replaced a whole-function rescan with one sweep plus
 * bookkeeping (a replacement map, use counts, dirty slots). This file
 * keeps the rescanning forms they replaced as references and checks
 * that both produce the same IR, the same counts and the same fact for
 * every instruction, on:
 *  - the 14 workloads' raw front-end IR (before any cleanup, so full
 *    of trivial phis and dead code), expanded module and bitspec-max
 *    squeezed module;
 *  - the same three forms of 200 generated fuzz programs;
 *  - hand-built corner cases: a chain of trivial phis, a self-only
 *    phi, a dead phi cycle, the instructions DCE must keep, and a loop
 *    counter that exhausts the widening budget.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/known_bits.h"
#include "core/system.h"
#include "frontend/irgen.h"
#include "frontend/parser.h"
#include "fuzz/differential.h"
#include "fuzz/gen.h"
#include "ir/builder.h"
#include "ir/clone.h"
#include "ir/printer.h"
#include "transform/simplify.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

// ---------------------------------------------------------------------
// References: the rescanning algorithms, kept verbatim in behaviour.
// ---------------------------------------------------------------------

/** Sweep every phi, replacing each trivial one's uses function-wide
 *  and erasing it at once, until a sweep changes nothing. */
unsigned
refSimplifyTrivialPhis(Function &f)
{
    unsigned removed = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &bb : f.blocks()) {
            for (auto it = bb->insts().begin(); it != bb->insts().end();) {
                Instruction *inst = it->get();
                if (!inst->isPhi()) {
                    ++it;
                    continue;
                }
                Value *unique = nullptr;
                bool trivial = true;
                for (Value *op : inst->operands()) {
                    if (op == inst)
                        continue;
                    if (unique && unique != op) {
                        trivial = false;
                        break;
                    }
                    unique = op;
                }
                if (!trivial) {
                    ++it;
                    continue;
                }
                Value *repl = unique
                                  ? unique
                                  : f.parent()->getConst(inst->type(), 0);
                f.replaceAllUses(inst, repl);
                it = bb->insts().erase(it);
                ++removed;
                changed = true;
            }
        }
    }
    return removed;
}

/** Collect every operand, erase every unused instruction without
 *  effects, until a round erases nothing. */
unsigned
refDeadCodeElim(Function &f)
{
    unsigned removed = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        std::set<const Value *> used;
        for (const auto &bb : f.blocks())
            for (const auto &inst : bb->insts())
                for (Value *op : inst->operands())
                    used.insert(op);

        for (auto &bb : f.blocks()) {
            for (auto it = bb->insts().begin(); it != bb->insts().end();) {
                Instruction *inst = it->get();
                bool side_effects =
                    inst->isTerm() || inst->op() == Opcode::Store ||
                    inst->isCall() || inst->isVolatileOp();
                if (!side_effects && !inst->isGuard() &&
                    !inst->type().isVoid() && !used.count(inst)) {
                    it = bb->insts().erase(it);
                    ++removed;
                    changed = true;
                } else {
                    ++it;
                }
            }
        }
    }
    return removed;
}

/** Range/mask-based compare fold: 1/0 when decided, -1 otherwise. */
int
refFoldCompare(CmpPred pred, const KnownBits &a, const KnownBits &b)
{
    bool disjoint = a.hi < b.lo || b.hi < a.lo;
    bool mask_conflict = (a.one & b.zero) || (b.one & a.zero);
    switch (pred) {
      case CmpPred::EQ:
        if (a.isConstant() && b.isConstant() && a.lo == b.lo)
            return 1;
        if (disjoint || mask_conflict)
            return 0;
        return -1;
      case CmpPred::NE:
        if (a.isConstant() && b.isConstant() && a.lo == b.lo)
            return 0;
        if (disjoint || mask_conflict)
            return 1;
        return -1;
      case CmpPred::ULT:
        if (a.hi < b.lo)
            return 1;
        if (a.lo >= b.hi)
            return 0;
        return -1;
      case CmpPred::ULE:
        if (a.hi <= b.lo)
            return 1;
        if (a.lo > b.hi)
            return 0;
        return -1;
      case CmpPred::UGT:
        if (a.lo > b.hi)
            return 1;
        if (a.hi <= b.lo)
            return 0;
        return -1;
      case CmpPred::UGE:
        if (a.lo >= b.hi)
            return 1;
        if (a.hi < b.lo)
            return 0;
        return -1;
      default:
        return -1;
    }
}

/** Round-robin known bits: every pass re-evaluates every analyzed
 *  instruction in reverse post order, facts in a hash map. */
class RefKnownBits
{
  public:
    explicit RefKnownBits(Function &f)
    {
        std::vector<const Instruction *> order;
        for (BasicBlock *bb : reversePostOrder(f))
            for (const auto &inst : bb->insts())
                if (inst->type().isInt())
                    order.push_back(inst.get());

        bool changed = true;
        unsigned iter = 0;
        for (; iter < KnownBitsAnalysis::kMaxIterations && changed;
             ++iter) {
            changed = false;
            for (const Instruction *inst : order) {
                KnownBits nf = transfer(inst);
                auto it = facts_.find(inst);
                if (it == facts_.end()) {
                    facts_.emplace(inst, nf);
                    updates_[inst] = 1;
                    changed = true;
                    continue;
                }
                if (nf == it->second)
                    continue;
                if (++updates_[inst] > KnownBitsAnalysis::kWideningBudget) {
                    nf.lo = 0;
                    nf.hi = ~0ULL;
                    nf = nf.normalized(inst->type().bits);
                }
                if (nf != it->second) {
                    it->second = nf;
                    changed = true;
                }
            }
        }
        passes_ = iter;
        if (changed) {
            for (const Instruction *inst : order)
                facts_[inst] = KnownBits::top(inst->type().bits);
        }
    }

    KnownBits
    known(const Value *v) const
    {
        unsigned bits = v->type().bits;
        if (v->isConstant())
            return KnownBits::constant(
                static_cast<const Constant *>(v)->value(), bits);
        if (v->isInstruction()) {
            auto it = facts_.find(static_cast<const Instruction *>(v));
            if (it != facts_.end())
                return it->second;
        }
        return KnownBits::top(bits);
    }

    /** Passes the fixed point ran. */
    unsigned passes() const { return passes_; }

  private:
    KnownBits
    transfer(const Instruction *inst) const
    {
        unsigned bits = inst->type().bits;
        auto get = [&](size_t i) { return known(inst->operand(i)); };
        switch (inst->op()) {
          case Opcode::Add:
            return inst->isSpeculative() ? kbSpecAdd(get(0), get(1), bits)
                                         : kbAdd(get(0), get(1), bits);
          case Opcode::Sub:
            return inst->isSpeculative() ? kbSpecSub(get(0), get(1), bits)
                                         : kbSub(get(0), get(1), bits);
          case Opcode::Mul:
            return kbMul(get(0), get(1), bits);
          case Opcode::UDiv:
            return kbUDiv(get(0), get(1), bits);
          case Opcode::URem:
            return kbURem(get(0), get(1), bits);
          case Opcode::And:
            return kbAnd(get(0), get(1), bits);
          case Opcode::Or:
            return kbOr(get(0), get(1), bits);
          case Opcode::Xor:
            return kbXor(get(0), get(1), bits);
          case Opcode::Shl:
            return kbShl(get(0), get(1), bits);
          case Opcode::LShr:
            return kbLShr(get(0), get(1), bits);
          case Opcode::AShr:
            return kbAShr(get(0), get(1), bits);
          case Opcode::Trunc:
            return inst->isSpeculative() ? kbSpecTrunc(get(0), bits)
                                         : kbTrunc(get(0), bits);
          case Opcode::ZExt:
            return kbZExt(get(0), inst->operand(0)->type().bits, bits);
          case Opcode::SExt:
            return kbSExt(get(0), inst->operand(0)->type().bits, bits);
          case Opcode::ICmp: {
            int r = refFoldCompare(inst->pred(), get(0), get(1));
            return r < 0 ? KnownBits::top(1)
                         : KnownBits::constant(static_cast<uint64_t>(r),
                                               1);
          }
          case Opcode::Select:
            return kbJoin(get(1), get(2), bits);
          case Opcode::Phi: {
            bool any = false;
            KnownBits acc;
            for (size_t i = 0; i < inst->numOperands(); ++i) {
                const Value *v = inst->operand(i);
                if (v->isInstruction() &&
                    !facts_.count(static_cast<const Instruction *>(v)))
                    continue;
                KnownBits k = known(v);
                acc = any ? kbJoin(acc, k, bits) : k;
                any = true;
            }
            return any ? acc.normalized(bits) : KnownBits::top(bits);
          }
          default:
            return KnownBits::top(bits);
        }
    }

    std::unordered_map<const Instruction *, KnownBits> facts_;
    std::unordered_map<const Instruction *, unsigned> updates_;
    unsigned passes_ = 0;
};

// ---------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------

/** Structural dump: every operand named by its defining position
 *  (block index, instruction index), so two values that merely share
 *  a printed name cannot be confused. Followed by printFunction. */
std::string
dump(const Function &f)
{
    std::unordered_map<const Value *, std::string> where;
    for (size_t b = 0; b < f.blocks().size(); ++b) {
        size_t i = 0;
        for (const auto &inst : f.blocks()[b]->insts())
            where[inst.get()] =
                "#" + std::to_string(b) + "." + std::to_string(i++);
    }
    std::ostringstream os;
    for (size_t b = 0; b < f.blocks().size(); ++b) {
        os << "block " << b << "\n";
        for (const auto &inst : f.blocks()[b]->insts()) {
            os << "  " << opcodeName(inst->op()) << " i"
               << inst->type().bits;
            for (const Value *v : inst->operands()) {
                auto it = where.find(v);
                os << " " << (it != where.end() ? it->second
                              : v->isInstruction() ? "<foreign>"
                                                   : printValueRef(v));
            }
            for (const BasicBlock *bb : inst->blockOperands())
                os << " %" << bb->name();
            os << (inst->isSpeculative() ? " spec" : "")
               << (inst->isGuard() ? " guard" : "") << "\n";
        }
    }
    return os.str() + printFunction(f);
}

/** Every instruction's fact from both fixed points must agree. */
void
expectSameFacts(Function &f, const std::string &label)
{
    KnownBitsAnalysis kb(f);
    RefKnownBits ref(f);
    size_t diffs = 0;
    for (const auto &bb : f.blocks()) {
        for (const auto &inst : bb->insts()) {
            KnownBits got = kb.known(inst.get());
            KnownBits want = ref.known(inst.get());
            if (got != want && diffs++ < 3)
                ADD_FAILURE() << label << ": " << f.name() << ":"
                              << bb->name() << " %" << inst->name()
                              << ": fact " << got.str()
                              << ", reference " << want.str();
        }
    }
    EXPECT_EQ(diffs, 0u) << label << ": " << f.name();
}

/** Run the reference and the new cleanup on two copies of every
 *  function of @p src and compare counts, IR and facts. */
void
expectSameCleanup(const Module &src, const std::string &label)
{
    auto ref = cloneModule(src);
    auto got = cloneModule(src);
    for (size_t i = 0; i < src.functions().size(); ++i) {
        Function &fr = *ref->functions()[i];
        Function &fg = *got->functions()[i];
        const std::string where = label + ": " + fr.name();
        expectSameFacts(fg, label + " (input)");

        EXPECT_EQ(simplifyTrivialPhis(fg), refSimplifyTrivialPhis(fr))
            << where;
        ASSERT_EQ(dump(fg), dump(fr)) << where << " after phis";
        EXPECT_EQ(deadCodeElim(fg), refDeadCodeElim(fr)) << where;
        ASSERT_EQ(dump(fg), dump(fr)) << where << " after DCE";
        expectSameFacts(fg, label + " (cleaned)");
    }

    // DCE straight on the input, trivial phis still in place.
    auto ref2 = cloneModule(src);
    auto got2 = cloneModule(src);
    for (size_t i = 0; i < src.functions().size(); ++i) {
        Function &fr = *ref2->functions()[i];
        Function &fg = *got2->functions()[i];
        EXPECT_EQ(deadCodeElim(fg), refDeadCodeElim(fr))
            << label << ": " << fr.name();
        ASSERT_EQ(dump(fg), dump(fr)) << label << ": " << fr.name()
                                      << " after DCE alone";
    }
}

/** Raw front-end IR, the expanded module and the bitspec-max squeezed
 *  module of @p w, each through the comparison. */
void
expectSameOnWorkload(const Workload &w)
{
    auto raw = generateIR(parseProgram(w.source));
    expectSameCleanup(*raw, w.name + " raw");

    const TrainedModule trained(w.source, ExpanderOptions{},
                                [&w](Module &m) { w.setInput(m, 0); });
    expectSameCleanup(trained.module(), w.name + " expanded");

    const System sys(trained, SystemConfig::bitspec(Heuristic::Max));
    expectSameCleanup(sys.module(), w.name + " squeezed");
}

class WorkloadOracle : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadOracle, CleanupAndKnownBitsMatchReference)
{
    expectSameOnWorkload(getWorkload(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Mibench, WorkloadOracle,
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
class FuzzOracle : public ::testing::TestWithParam<unsigned>
{};

TEST_P(FuzzOracle, CleanupAndKnownBitsMatchReference)
{
    for (uint64_t seed = GetParam() * 50; seed < GetParam() * 50 + 50;
         ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        expectSameOnWorkload(makeFuzzWorkload(generateProgram(seed)));
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOracle,
                         ::testing::Values(0u, 1u, 2u, 3u));

// ---------------------------------------------------------------------
// Hand-built corner cases.
// ---------------------------------------------------------------------

/** Blocks listed against control flow (entry, b1, b2, b3 while the
 *  edges run entry -> b3 -> b2 -> b1), each holding a single-input
 *  phi of the previous one: a sweep in block order meets every phi
 *  before the phi it copies, so p1 -> p2 -> p3 -> x is a chain. */
TEST(CleanupOracle, TrivialPhiChainResolvesToOneValue)
{
    auto build = [](Module &m) {
        Function *f = m.addFunction("chain", Type::i32(), {Type::i32()});
        IRBuilder b(&m);
        BasicBlock *entry = f->addBlock("entry");
        BasicBlock *b1 = f->addBlock("b1");
        BasicBlock *b2 = f->addBlock("b2");
        BasicBlock *b3 = f->addBlock("b3");
        b.setInsertPoint(entry);
        Instruction *x = b.add(f->arg(0), b.constI32(1));
        x->setName("x");
        b.br(b3);
        b.setInsertPoint(b3);
        Instruction *p3 = b.phi(Type::i32(), "p3");
        IRBuilder::addIncoming(p3, x, entry);
        b.br(b2);
        b.setInsertPoint(b2);
        Instruction *p2 = b.phi(Type::i32(), "p2");
        IRBuilder::addIncoming(p2, p3, b3);
        b.br(b1);
        b.setInsertPoint(b1);
        Instruction *p1 = b.phi(Type::i32(), "p1");
        IRBuilder::addIncoming(p1, p2, b2);
        b.ret(p1);
        return f;
    };
    Module mr, mg;
    Function *fr = build(mr);
    Function *fg = build(mg);
    EXPECT_EQ(refSimplifyTrivialPhis(*fr), 3u);
    EXPECT_EQ(simplifyTrivialPhis(*fg), 3u);
    EXPECT_EQ(dump(*fg), dump(*fr));
    Instruction *ret = fg->blocks()[1]->terminator();
    EXPECT_EQ(ret->operand(0), &*fg->entry()->insts().front());
}

/** A loop-header phi fed only by itself (an unreachable merge):
 *  replaced by the zero constant of its type. */
TEST(CleanupOracle, SelfOnlyPhiBecomesZero)
{
    auto build = [](Module &m) {
        Function *f = m.addFunction("self", Type::i32(), {});
        IRBuilder b(&m);
        BasicBlock *entry = f->addBlock("entry");
        BasicBlock *loop = f->addBlock("loop");
        BasicBlock *exit = f->addBlock("exit");
        b.setInsertPoint(entry);
        b.br(exit);
        b.setInsertPoint(loop);
        Instruction *p = b.phi(Type::i32(), "p");
        IRBuilder::addIncoming(p, p, loop);
        Instruction *q = b.add(p, b.constI32(2));
        b.condBr(b.icmp(CmpPred::ULT, q, b.constI32(9)), loop, exit);
        b.setInsertPoint(exit);
        b.ret(b.constI32(0));
        return std::make_pair(f, q);
    };
    Module mr, mg;
    auto [fr, qr] = build(mr);
    auto [fg, qg] = build(mg);
    EXPECT_EQ(refSimplifyTrivialPhis(*fr), 1u);
    EXPECT_EQ(simplifyTrivialPhis(*fg), 1u);
    EXPECT_EQ(dump(*fg), dump(*fr));
    EXPECT_EQ(qg->operand(0), mg.getConst(Type::i32(), 0));
    (void)qr;
}

/** p = phi(0, q), q = p + 1, nothing else uses either: each keeps the
 *  other alive, so DCE removes neither (and nothing else). */
TEST(CleanupOracle, DeadPhiCycleSurvivesDCE)
{
    auto build = [](Module &m) {
        Function *f = m.addFunction("cycle", Type::i32(), {Type::i32()});
        IRBuilder b(&m);
        BasicBlock *entry = f->addBlock("entry");
        BasicBlock *loop = f->addBlock("loop");
        BasicBlock *exit = f->addBlock("exit");
        b.setInsertPoint(entry);
        b.br(loop);
        b.setInsertPoint(loop);
        Instruction *p = b.phi(Type::i32(), "p");
        Instruction *q = b.add(p, b.constI32(1));
        IRBuilder::addIncoming(p, b.constI32(0), entry);
        IRBuilder::addIncoming(p, q, loop);
        b.condBr(b.icmp(CmpPred::ULT, f->arg(0), b.constI32(9)), loop,
                 exit);
        b.setInsertPoint(exit);
        b.ret(b.constI32(0));
        return f;
    };
    Module mr, mg;
    Function *fr = build(mr);
    Function *fg = build(mg);
    const size_t before = fg->instructionCount();
    EXPECT_EQ(refDeadCodeElim(*fr), 0u);
    EXPECT_EQ(deadCodeElim(*fg), 0u);
    EXPECT_EQ(fg->instructionCount(), before);
    EXPECT_EQ(dump(*fg), dump(*fr));
}

/** An unused guard, store, call and output all stay; a chain of plain
 *  unused values hanging off them goes. */
TEST(CleanupOracle, DCEKeepsGuardsStoresCallsAndOutputs)
{
    auto build = [](Module &m) {
        Function *callee = m.addFunction("callee", Type::i32(), {});
        {
            IRBuilder b(&m);
            b.setInsertPoint(callee->addBlock("entry"));
            b.ret(b.constI32(3));
        }
        Global *g = m.addGlobal("g", 32, 4);
        Function *f = m.addFunction("keep", Type::i32(), {Type::i8()});
        IRBuilder b(&m);
        b.setInsertPoint(f->addBlock("entry"));
        Instruction *guard = b.add(f->arg(0), m.getConst(Type::i8(), 1));
        guard->setGuard(true);
        Instruction *addr = b.add(b.globalAddr(g), b.constI32(4));
        b.store(addr, b.constI32(5));
        Instruction *call = b.call(callee, {});
        b.output(b.constI32(6));
        // Dead: widen the call's result twice, unused.
        Instruction *d1 = b.add(call, b.constI32(1));
        b.mul(d1, b.constI32(2));
        b.ret(b.constI32(0));
        return f;
    };
    Module mr, mg;
    Function *fr = build(mr);
    Function *fg = build(mg);
    EXPECT_EQ(refDeadCodeElim(*fr), 2u);
    EXPECT_EQ(deadCodeElim(*fg), 2u);
    EXPECT_EQ(dump(*fg), dump(*fr));
    // Guard, address, store, call, output, ret.
    EXPECT_EQ(fg->instructionCount(), 6u);
}

/** i = phi(0, i + 1) below an unknown bound: the interval grows every
 *  pass until the per-value budget widens it, and the back-edge
 *  input's first fact must send the phi round again. */
TEST(CleanupOracle, LoopCounterHitsWideningBudget)
{
    Module m;
    Function *f = m.addFunction("count", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *loop = f->addBlock("loop");
    BasicBlock *exit = f->addBlock("exit");
    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction *i = b.phi(Type::i32(), "i");
    Instruction *next = b.add(i, b.constI32(1));
    Instruction *low = b.band(next, b.constI32(0x3ff));
    IRBuilder::addIncoming(i, b.constI32(0), entry);
    IRBuilder::addIncoming(i, next, loop);
    b.condBr(b.icmp(CmpPred::ULT, next, f->arg(0)), loop, exit);
    b.setInsertPoint(exit);
    b.ret(low);

    RefKnownBits ref(*f);
    EXPECT_GT(ref.passes(), KnownBitsAnalysis::kWideningBudget);
    EXPECT_EQ(ref.known(i).hi, 0xffffffffu);
    EXPECT_EQ(ref.known(low).hi, 0x3ffu);
    expectSameFacts(*f, "counter");
}

} // namespace
} // namespace bitspec
