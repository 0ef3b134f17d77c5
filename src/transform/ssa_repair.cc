#include "transform/ssa_repair.h"

#include <unordered_map>

#include "analysis/cfg.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

/** One operand slot: operand @c second of instruction @c first. */
using Use = std::pair<Instruction *, size_t>;

class Repairer
{
  public:
    /** Repair @p orig, whose uses before any repair were @p uses. */
    Repairer(Function &f, const PredecessorMap &preds, Value *orig,
             const std::vector<AltDef> &alts, const std::vector<Use> &uses)
        : f_(f), orig_(orig), preds_(preds)
    {
        if (orig->isInstruction())
            origBlock_ = static_cast<Instruction *>(orig)->parent();

        // Create the re-entry phis up front so reaching-def queries
        // terminate at them.
        for (const AltDef &alt : alts) {
            auto phi = std::make_unique<Instruction>(Opcode::Phi,
                                                     orig->type());
            phi->setName("merge");
            Instruction *raw = phi.get();
            raw->setParent(alt.block);
            alt.block->insertBefore(alt.block->insts().begin(),
                                    std::move(phi));
            blockDefs_[alt.block] = raw;
        }

        // Fill the re-entry phi operands.
        for (const AltDef &alt : alts) {
            Instruction *phi = blockDefs_.at(alt.block);
            for (BasicBlock *p : predsOf(alt.block)) {
                if (p == alt.handlerPred) {
                    phi->addOperand(alt.handlerValue);
                } else {
                    phi->addOperand(reachEnd(p));
                }
                phi->addBlockOperand(p);
            }
        }

        // Rewrite the collected uses.
        for (const auto &[user, index] : uses) {
            Value *repl;
            if (user->isPhi()) {
                repl = reachEnd(user->blockOperand(index));
            } else {
                BasicBlock *bb = user->parent();
                if (blockDefs_.count(bb)) {
                    repl = blockDefs_[bb];
                } else if (bb == origBlock_ &&
                           definesBefore(orig_, user, bb)) {
                    continue; // Straight-line use after the def.
                } else {
                    repl = reachEntry(bb);
                }
            }
            user->setOperand(index, repl);
        }
    }

  private:
    const std::vector<BasicBlock *> &
    predsOf(const BasicBlock *bb) const
    {
        static const std::vector<BasicBlock *> kNone;
        auto it = preds_.find(bb);
        return it == preds_.end() ? kNone : it->second;
    }

    static bool
    definesBefore(Value *def, Instruction *user, BasicBlock *bb)
    {
        if (!def->isInstruction())
            return true; // Arguments are defined at entry.
        for (const auto &inst : bb->insts()) {
            if (inst.get() == def)
                return true;
            if (inst.get() == user)
                return false;
        }
        return false;
    }

    Value *
    reachEnd(BasicBlock *bb)
    {
        auto it = blockDefs_.find(bb);
        if (it != blockDefs_.end())
            return it->second;
        if (bb == origBlock_)
            return orig_;
        return reachEntry(bb);
    }

    Value *
    reachEntry(BasicBlock *bb)
    {
        auto it = memo_.find(bb);
        if (it != memo_.end())
            return it->second;

        const auto &preds = predsOf(bb);
        if (preds.empty()) {
            // Entry or unreachable block: only an argument can
            // legitimately reach here; otherwise any placeholder is
            // fine (valid SSA guarantees such a path never uses it).
            Value *v = orig_->isInstruction()
                           ? static_cast<Value *>(
                                 f_.parent()->getConst(orig_->type(), 0))
                           : orig_;
            memo_[bb] = v;
            return v;
        }
        if (preds.size() == 1) {
            // No placeholder memoisation: an in-progress marker would
            // leak into sibling resolutions revisiting this block
            // (shared ancestors in unrolled loops). Recursing again is
            // safe: every reachable cycle contains a join, and joins
            // memoise their phi before resolving inputs, so a second
            // traversal terminates there. Only degenerate join-less
            // cycles (unreachable garbage) need the bail-out.
            unsigned &depth = visiting_[bb];
            if (depth >= 2) {
                Value *v = orig_->isInstruction()
                               ? static_cast<Value *>(f_.parent()->getConst(
                                     orig_->type(), 0))
                               : orig_;
                memo_[bb] = v;
                return v;
            }
            ++depth;
            Value *v = reachEnd(preds[0]);
            --depth;
            memo_[bb] = v;
            return v;
        }

        // Join: speculative phi, memoised before recursion to close
        // loops. Trivial ones are cleaned by simplifyTrivialPhis.
        auto phi = std::make_unique<Instruction>(Opcode::Phi,
                                                 orig_->type());
        phi->setName("ssarep");
        Instruction *raw = phi.get();
        raw->setParent(bb);
        bb->insertBefore(bb->insts().begin(), std::move(phi));
        memo_[bb] = raw;
        for (BasicBlock *p : preds) {
            raw->addOperand(reachEnd(p));
            raw->addBlockOperand(p);
        }
        return raw;
    }

    Function &f_;
    Value *orig_;
    BasicBlock *origBlock_ = nullptr;
    const PredecessorMap &preds_;
    std::unordered_map<BasicBlock *, Instruction *> blockDefs_;
    std::unordered_map<BasicBlock *, unsigned> visiting_;
    std::unordered_map<BasicBlock *, Value *> memo_;
};

} // namespace

void
repairSSA(Function &f, const PredecessorMap &preds,
          const std::vector<SSARepair> &repairs)
{
    std::unordered_map<const Value *, size_t> index;
    for (size_t r = 0; r < repairs.size(); ++r) {
        const SSARepair &rep = repairs[r];
        for (const AltDef &a : rep.alts) {
            if (a.handlerValue->type() != rep.orig->type())
                panic("repairSSA: type mismatch: orig %" +
                      rep.orig->name() + " " + rep.orig->type().str() +
                      " vs handler value %" + a.handlerValue->name() +
                      " " + a.handlerValue->type().str() + " at " +
                      a.block->name());
            bsAssert(a.block && a.handlerPred, "repairSSA: bad alt def");
        }
        if (!index.emplace(rep.orig, r).second)
            panic("repairSSA: value repaired twice: %" + rep.orig->name());
    }

    // Uses of every repaired value, in block and instruction order.
    std::vector<std::vector<Use>> uses(repairs.size());
    for (auto &bb : f.blocks()) {
        for (auto &inst : bb->insts()) {
            for (size_t i = 0; i < inst->numOperands(); ++i) {
                auto it = index.find(inst->operand(i));
                if (it != index.end())
                    uses[it->second].push_back({inst.get(), i});
            }
        }
    }

    for (size_t r = 0; r < repairs.size(); ++r)
        if (!repairs[r].alts.empty())
            Repairer(f, preds, repairs[r].orig, repairs[r].alts, uses[r]);
}

} // namespace bitspec
