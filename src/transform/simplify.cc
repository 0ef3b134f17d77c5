#include "transform/simplify.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/cfg.h"
#include "support/bits.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

/** Fold a binary/compare/cast op over constants. Returns false when the
 *  op is not safely foldable (division, unknown). */
bool
foldOp(const Instruction &inst, uint64_t &out)
{
    unsigned bits = inst.type().bits;
    auto cval = [&](size_t i) {
        return static_cast<Constant *>(inst.operand(i))->value();
    };

    switch (inst.op()) {
      case Opcode::Add:
        out = truncTo(cval(0) + cval(1), bits);
        return true;
      case Opcode::Sub:
        out = truncTo(cval(0) - cval(1), bits);
        return true;
      case Opcode::Mul:
        out = truncTo(cval(0) * cval(1), bits);
        return true;
      case Opcode::And:
        out = cval(0) & cval(1);
        return true;
      case Opcode::Or:
        out = cval(0) | cval(1);
        return true;
      case Opcode::Xor:
        out = cval(0) ^ cval(1);
        return true;
      case Opcode::Shl: {
        uint64_t amt = cval(1);
        out = amt >= bits ? 0 : truncTo(cval(0) << amt, bits);
        return true;
      }
      case Opcode::LShr: {
        uint64_t amt = cval(1);
        out = amt >= bits ? 0 : (cval(0) >> amt);
        return true;
      }
      case Opcode::AShr: {
        uint64_t amt = cval(1);
        int64_t sa = static_cast<int64_t>(sextFrom(cval(0), bits));
        out = amt >= bits ? truncTo(sa < 0 ? ~0ULL : 0, bits)
                          : truncTo(static_cast<uint64_t>(sa >> amt), bits);
        return true;
      }
      case Opcode::ICmp: {
        unsigned obits = inst.operand(0)->type().bits;
        uint64_t ua = truncTo(cval(0), obits), ub = truncTo(cval(1), obits);
        int64_t sa = static_cast<int64_t>(sextFrom(ua, obits));
        int64_t sb = static_cast<int64_t>(sextFrom(ub, obits));
        bool r = false;
        switch (inst.pred()) {
          case CmpPred::EQ: r = ua == ub; break;
          case CmpPred::NE: r = ua != ub; break;
          case CmpPred::ULT: r = ua < ub; break;
          case CmpPred::ULE: r = ua <= ub; break;
          case CmpPred::UGT: r = ua > ub; break;
          case CmpPred::UGE: r = ua >= ub; break;
          case CmpPred::SLT: r = sa < sb; break;
          case CmpPred::SLE: r = sa <= sb; break;
          case CmpPred::SGT: r = sa > sb; break;
          case CmpPred::SGE: r = sa >= sb; break;
        }
        out = r ? 1 : 0;
        return true;
      }
      case Opcode::ZExt:
        out = zextFrom(cval(0), inst.operand(0)->type().bits);
        return true;
      case Opcode::SExt:
        out = truncTo(sextFrom(cval(0), inst.operand(0)->type().bits),
                      bits);
        return true;
      case Opcode::Trunc:
        out = truncTo(cval(0), bits);
        return true;
      case Opcode::Select:
        out = cval(0) != 0 ? truncTo(cval(1), bits)
                           : truncTo(cval(2), bits);
        return true;
      default:
        return false;
    }
}

} // namespace

unsigned
simplifyTrivialPhis(Function &f)
{
    // Phis in block order. Simplification neither adds nor moves one.
    std::vector<Instruction *> phis;
    for (auto &bb : f.blocks())
        for (auto &inst : bb->insts())
            if (inst->isPhi())
                phis.push_back(inst.get());

    // Removed phi -> its replacement, which may itself be a removed
    // phi: resolve() follows the chain, compressing it as it goes.
    std::unordered_map<const Value *, Value *> repl;
    auto resolve = [&](Value *v) {
        Value *root = v;
        for (auto it = repl.find(root); it != repl.end();
             it = repl.find(root))
            root = it->second;
        while (v != root) {
            Value *&next = repl[v];
            v = next;
            next = root;
        }
        return root;
    };

    // Visit the live phis in the same order, pass after pass, as
    // rewriting each removed phi's uses at once would: every operand
    // is seen through resolve().
    bool changed = true;
    while (changed) {
        changed = false;
        for (Instruction *inst : phis) {
            if (repl.count(inst))
                continue;
            // Find the unique operand that isn't the phi itself.
            Value *unique = nullptr;
            bool trivial = true;
            for (Value *raw : inst->operands()) {
                Value *op = resolve(raw);
                if (op == inst)
                    continue;
                if (unique && unique != op) {
                    trivial = false;
                    break;
                }
                unique = op;
            }
            if (!trivial)
                continue;
            // Empty/self-only phis come from unreachable merges: any
            // value is acceptable; use zero.
            repl[inst] =
                unique ? unique : f.parent()->getConst(inst->type(), 0);
            changed = true;
        }
    }
    if (repl.empty())
        return 0;

    // One sweep rewrites every operand, then the removed phis go.
    // Erasing last keeps a freed phi's address from coming back (say,
    // as a new constant) while it is still a key of repl.
    for (auto &bb : f.blocks())
        for (auto &inst : bb->insts())
            for (size_t i = 0; i < inst->numOperands(); ++i)
                if (repl.count(inst->operand(i)))
                    inst->setOperand(i, resolve(inst->operand(i)));
    for (auto &bb : f.blocks())
        std::erase_if(bb->insts(), [&](const auto &inst) {
            return inst->isPhi() && repl.count(inst.get());
        });
    return static_cast<unsigned>(repl.size());
}

unsigned
deadCodeElim(Function &f)
{
    // Uses per instruction, counted over every operand in the
    // function. An unused instruction without effects dies, and each
    // operand that loses its last use with it is examined next. This
    // removes exactly what repeated whole-function sweeps would:
    // "remove the unused" has one fixed point.
    std::unordered_map<const Instruction *, unsigned> uses;
    for (const auto &bb : f.blocks())
        for (const auto &inst : bb->insts())
            for (Value *op : inst->operands())
                if (op->isInstruction())
                    ++uses[static_cast<const Instruction *>(op)];

    auto removable = [&](const Instruction *inst) {
        bool side_effects = inst->isTerm() || inst->op() == Opcode::Store ||
                            inst->isCall() || inst->isVolatileOp();
        return !side_effects && !inst->isGuard() && !inst->type().isVoid();
    };
    std::vector<Instruction *> work;
    for (const auto &bb : f.blocks())
        for (const auto &inst : bb->insts())
            if (removable(inst.get()) && !uses.count(inst.get()))
                work.push_back(inst.get());

    std::unordered_set<const Instruction *> dead;
    while (!work.empty()) {
        Instruction *inst = work.back();
        work.pop_back();
        dead.insert(inst);
        for (Value *op : inst->operands()) {
            if (!op->isInstruction())
                continue;
            auto *def = static_cast<Instruction *>(op);
            if (--uses.at(def) == 0 && removable(def))
                work.push_back(def);
        }
    }
    if (dead.empty())
        return 0;

    for (auto &bb : f.blocks())
        std::erase_if(bb->insts(),
                      [&](const auto &inst) { return dead.count(inst.get()); });
    return static_cast<unsigned>(dead.size());
}

unsigned
constantFold(Function &f)
{
    unsigned folds = 0;
    Module *m = f.parent();
    bsAssert(m != nullptr, "constantFold: function without module");

    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &bb : f.blocks()) {
            for (auto it = bb->insts().begin(); it != bb->insts().end();) {
                Instruction *inst = it->get();

                // Fold a constant conditional branch into a plain one.
                if (inst->op() == Opcode::CondBr &&
                    inst->operand(0)->isConstant()) {
                    bool taken =
                        static_cast<Constant *>(inst->operand(0))->value()
                        != 0;
                    BasicBlock *kept = inst->blockOperand(taken ? 0 : 1);
                    BasicBlock *dropped = inst->blockOperand(taken ? 1 : 0);
                    inst->setOp(Opcode::Br);
                    inst->clearOperands();
                    while (!inst->blockOperands().empty())
                        inst->removeBlockOperand(0);
                    inst->addBlockOperand(kept);
                    // The dropped edge no longer feeds phis.
                    if (dropped != kept) {
                        for (Instruction *phi : dropped->phis()) {
                            for (size_t i = phi->numOperands(); i-- > 0;) {
                                if (phi->blockOperand(i) == bb.get())
                                    phi->removePhiIncoming(i);
                            }
                        }
                    }
                    ++folds;
                    changed = true;
                    ++it;
                    continue;
                }

                // Speculative instructions carry a misspeculation side
                // effect; folding them would drop it.
                if (inst->isSpeculative() || inst->type().isVoid()) {
                    ++it;
                    continue;
                }

                bool all_const = inst->numOperands() > 0;
                for (Value *op : inst->operands())
                    all_const &= op->isConstant();
                uint64_t val = 0;
                if (all_const && !inst->isPhi() &&
                    foldOp(*inst, val)) {
                    f.replaceAllUses(inst,
                                     m->getConst(inst->type(), val));
                    it = bb->insts().erase(it);
                    ++folds;
                    changed = true;
                } else {
                    ++it;
                }
            }
        }
    }
    return folds;
}

void
simplifyFunction(Function &f)
{
    for (;;) {
        unsigned n = 0;
        n += constantFold(f);
        n += simplifyTrivialPhis(f);
        n += deadCodeElim(f);
        removeUnreachableBlocks(f);
        if (n == 0)
            return;
    }
}

void
simplifyModule(Module &m)
{
    for (const auto &f : m.functions())
        simplifyFunction(*f);
}

} // namespace bitspec
