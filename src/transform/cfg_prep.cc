#include "transform/cfg_prep.h"

#include "ir/builder.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

/**
 * Split @p bb before @p pos: instructions from @p pos onwards move to a
 * fresh block; @p bb then unconditionally branches to it. Successor
 * phis keep working because the new block inherits the terminator; no
 * phi can reference @p bb as an incoming edge anymore, so retarget
 * incoming edges of successors from bb to the tail.
 */
BasicBlock *
splitBlockBefore(Function &f, BasicBlock *bb,
                 BasicBlock::InstList::iterator pos)
{
    BasicBlock *tail = f.addBlock(bb->name() + ".split");

    // Move [pos, end) into the tail.
    auto &src = bb->insts();
    auto &dst = tail->insts();
    dst.splice(dst.begin(), src, pos, src.end());
    for (auto &inst : dst)
        inst->setParent(tail);

    // bb now falls through to tail.
    IRBuilder b(f.parent());
    b.setInsertPoint(bb);
    b.br(tail);

    // Successor phis referenced bb as the incoming block; the edge now
    // originates from the tail.
    for (BasicBlock *succ : tail->successors()) {
        for (Instruction *phi : succ->phis()) {
            for (size_t i = 0; i < phi->blockOperands().size(); ++i)
                if (phi->blockOperand(i) == bb)
                    phi->setBlockOperand(i, tail);
        }
    }
    return tail;
}

} // namespace

unsigned
prepareCFG(Function &f)
{
    unsigned splits = 0;
    // One pass in block order. A split leaves its block clean (the
    // head keeps only instructions that needed no split, then a
    // branch) and appends the tail, which the pass reaches in turn;
    // no other block changes in a way the rules read. So this splits
    // exactly where rescanning from the first block after every split
    // would. Index, not iterator: splits grow f.blocks().
    for (size_t b = 0; b < f.blocks().size(); ++b) {
        BasicBlock *bb = f.blocks()[b].get();
        bool seen_nonphi = false;
        bool seen_load = false, seen_store = false;
        bool prev_isolated = false;

        for (auto it = bb->insts().begin(); it != bb->insts().end();
             ++it) {
            Instruction *inst = it->get();
            if (inst->isTerm())
                break;

            bool is_phi = inst->isPhi();
            bool isolated = inst->isCall() || inst->isVolatileOp();

            bool need_split = false;
            // Eq. 6: first non-phi after phis starts a new block.
            if (!is_phi && !seen_nonphi && it != bb->insts().begin())
                need_split = true;
            // Eq. 5: calls/volatiles isolated; also split right after
            // one.
            if (!need_split && seen_nonphi && (isolated || prev_isolated))
                need_split = true;
            // Eq. 4: loads and stores segregated.
            if (!need_split &&
                ((inst->op() == Opcode::Load && seen_store) ||
                 (inst->op() == Opcode::Store && seen_load))) {
                need_split = true;
            }

            if (need_split) {
                splitBlockBefore(f, bb, it);
                ++splits;
                break;
            }

            seen_nonphi |= !is_phi;
            seen_load |= inst->op() == Opcode::Load;
            seen_store |= inst->op() == Opcode::Store;
            prev_isolated = isolated;
        }
    }
    return splits;
}

} // namespace bitspec
