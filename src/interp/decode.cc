#include "interp/decode.h"

#include <algorithm>
#include <unordered_map>

#include "ir/module.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

/**
 * Order the moves of one phi parallel copy so sequential execution
 * produces the parallel result. A move may run once no *other* pending
 * move still reads its destination's old value. When every pending move
 * is blocked the remainder is a set of disjoint permutation cycles
 * (destinations are unique and each blocked move is held by exactly one
 * reader); a cycle is broken by saving one destination to the scratch
 * slot and redirecting its reader there.
 */
std::vector<PhiMove>
sequentialize(std::vector<PhiMove> moves, int32_t scratch)
{
    std::vector<PhiMove> out;
    out.reserve(moves.size());
    std::vector<char> done(moves.size(), 0);
    size_t remaining = moves.size();

    auto blocked = [&](size_t i) {
        for (size_t j = 0; j < moves.size(); ++j)
            if (j != i && !done[j] && moves[j].src.slot == moves[i].dst)
                return true;
        return false;
    };

    while (remaining) {
        bool progress = false;
        for (size_t i = 0; i < moves.size(); ++i) {
            if (done[i] || blocked(i))
                continue;
            out.push_back(moves[i]);
            done[i] = 1;
            --remaining;
            progress = true;
        }
        if (progress)
            continue;
        // All pending moves are cyclic: break one cycle via scratch.
        size_t i = 0;
        while (done[i])
            ++i;
        PhiMove save;
        save.dst = scratch;
        save.src.slot = moves[i].dst;
        save.bits = 64; // Raw copy: preserve the old value exactly.
        out.push_back(save);
        for (size_t j = 0; j < moves.size(); ++j)
            if (j != i && !done[j] && moves[j].src.slot == moves[i].dst)
                moves[j].src.slot = scratch;
    }
    return out;
}

} // namespace

const std::string &
DecodedFunction::blockName(uint32_t i) const
{
    return blockPtrs_[i]->name();
}

std::unique_ptr<DecodedFunction>
DecodedFunction::decode(Function *f, uint32_t profile_base)
{
    std::unique_ptr<DecodedFunction> df(new DecodedFunction);
    df->fn_ = f;
    df->numSlots_ = f->renumber();

    for (size_t i = 0; i < f->numArgs(); ++i)
        df->argBits_.push_back(f->arg(i)->type().bits);

    std::unordered_map<const BasicBlock *, uint32_t> index;
    for (const auto &bb : f->blocks()) {
        index[bb.get()] = static_cast<uint32_t>(df->blockPtrs_.size());
        df->blockPtrs_.push_back(bb.get());
    }

    auto decodeOperand = [&](Value *v) -> DecodedOperand {
        DecodedOperand o;
        switch (v->kind()) {
          case ValueKind::Constant:
            o.imm = static_cast<Constant *>(v)->value();
            break;
          case ValueKind::GlobalRef:
            o.imm = static_cast<GlobalRef *>(v)->global()->address();
            break;
          default:
            o.slot = static_cast<int32_t>(f->valueId(v));
            break;
        }
        return o;
    };

    uint32_t next_profile = profile_base;
    auto newProfileId = [&](const Instruction *inst) {
        df->profInsts_.push_back(inst);
        return next_profile++;
    };

    df->blocks_.resize(df->blockPtrs_.size());

    for (uint32_t bi = 0; bi < df->blockPtrs_.size(); ++bi) {
        const BasicBlock *bb = df->blockPtrs_[bi];
        DecodedBlock &blk = df->blocks_[bi];

        // Phi move lists, one per predecessor mentioned by any phi.
        auto phis = bb->phis();
        if (!phis.empty()) {
            blk.hasPhis = true;
            std::vector<BasicBlock *> preds;
            for (const Instruction *phi : phis)
                for (BasicBlock *in : phi->blockOperands())
                    if (std::find(preds.begin(), preds.end(), in) ==
                        preds.end())
                        preds.push_back(in);

            std::vector<uint32_t> phi_ids;
            for (const Instruction *phi : phis)
                phi_ids.push_back(newProfileId(phi));

            blk.phiBegin = static_cast<uint32_t>(df->phiLists_.size());
            for (BasicBlock *pred : preds) {
                std::vector<PhiMove> moves;
                bool complete = true;
                for (size_t p = 0; p < phis.size(); ++p) {
                    Instruction *phi = phis[p];
                    bool found = false;
                    for (size_t i = 0; i < phi->numOperands(); ++i) {
                        if (phi->blockOperand(i) != pred)
                            continue;
                        PhiMove m;
                        m.dst =
                            static_cast<int32_t>(f->valueId(phi));
                        m.src = decodeOperand(phi->operand(i));
                        m.bits =
                            static_cast<uint8_t>(phi->type().bits);
                        m.profileId = phi_ids[p];
                        m.phi = phi;
                        moves.push_back(m);
                        found = true;
                        break;
                    }
                    if (!found) {
                        // A phi lacks an entry for this edge; arriving
                        // from `pred` must panic at run time, so emit
                        // no list for it.
                        complete = false;
                        break;
                    }
                }
                if (!complete)
                    continue;
                moves = sequentialize(
                    std::move(moves),
                    static_cast<int32_t>(df->scratchSlot()));
                PhiList pl;
                pl.pred = index.at(pred);
                pl.begin = static_cast<uint32_t>(df->phiMoves_.size());
                pl.count = static_cast<uint32_t>(moves.size());
                df->phiMoves_.insert(df->phiMoves_.end(), moves.begin(),
                                     moves.end());
                df->phiLists_.push_back(pl);
            }
            blk.phiListCount =
                static_cast<uint32_t>(df->phiLists_.size()) -
                blk.phiBegin;
        }

        // Straight-line instructions.
        blk.instBegin = static_cast<uint32_t>(df->insts_.size());
        BasicBlock *mbb = const_cast<BasicBlock *>(bb);
        for (auto it = mbb->firstNonPhi(); it != mbb->insts().end();
             ++it) {
            Instruction *inst = it->get();
            DecodedInst di;
            di.op = inst->op();
            di.pred = inst->pred();
            di.bits = static_cast<uint8_t>(inst->type().bits);
            di.speculative = inst->isSpeculative();
            di.inst = inst;
            di.opBegin = static_cast<uint32_t>(df->pool_.size());
            di.opCount = static_cast<uint16_t>(inst->numOperands());
            for (Value *v : inst->operands())
                df->pool_.push_back(decodeOperand(v));

            bool writes = !inst->type().isVoid();
            switch (inst->op()) {
              case Opcode::ICmp:
                di.auxBits = static_cast<uint8_t>(
                    inst->operand(0)->type().bits);
                break;
              case Opcode::ZExt:
              case Opcode::SExt:
              case Opcode::Trunc:
                di.auxBits = static_cast<uint8_t>(
                    inst->operand(0)->type().bits);
                break;
              case Opcode::Load:
                if (inst->isSpeculative()) {
                    unsigned orig = inst->specOrigBits();
                    bsAssert(orig > inst->type().bits,
                             "spec load with no orig width");
                    di.auxBits = static_cast<uint8_t>(orig);
                }
                break;
              case Opcode::Store:
                di.auxBits = static_cast<uint8_t>(
                    inst->operand(1)->type().bits);
                break;
              case Opcode::Output:
                di.auxBits = static_cast<uint8_t>(
                    inst->operand(0)->type().bits);
                break;
              case Opcode::Ret:
                if (inst->numOperands())
                    di.auxBits = static_cast<uint8_t>(
                        inst->operand(0)->type().bits);
                break;
              case Opcode::Call:
                di.callee = inst->callee();
                bsAssert(di.callee != nullptr,
                         "call without callee in " + f->name());
                bsAssert(di.callee->numArgs() == inst->numOperands(),
                         "arity mismatch calling " +
                             di.callee->name());
                // Void calls yield a 64-bit (unused) result.
                di.bits = static_cast<uint8_t>(
                    inst->type().bits ? inst->type().bits : 64);
                break;
              case Opcode::Br:
                di.target0 = index.at(inst->blockOperand(0));
                break;
              case Opcode::CondBr:
                di.target0 = index.at(inst->blockOperand(0));
                di.target1 = index.at(inst->blockOperand(1));
                break;
              default:
                break;
            }
            if (writes) {
                di.dst = static_cast<int32_t>(f->valueId(inst));
                di.profileId = newProfileId(inst);
            }
            df->insts_.push_back(di);
        }
        blk.instCount =
            static_cast<uint32_t>(df->insts_.size()) - blk.instBegin;
    }

    // Region membership and handlers. Later regions overwrite earlier
    // ones for shared members.
    int32_t region_ord = 0;
    for (const auto &sr : f->specRegions()) {
        int32_t handler_idx = -1;
        if (sr->handler) {
            auto it = index.find(sr->handler);
            bsAssert(it != index.end(),
                     "region handler not in function: " + f->name());
            handler_idx = static_cast<int32_t>(it->second);
        }
        for (BasicBlock *member : sr->blocks) {
            auto it = index.find(member);
            bsAssert(it != index.end(),
                     "region member not in function: " + f->name());
            df->blocks_[it->second].handler = handler_idx;
            df->blocks_[it->second].region = region_ord;
        }
        ++region_ord;
    }

    df->frameSize_ = df->numSlots_ + 1 +
                     static_cast<unsigned>(f->specRegions().size());
    return df;
}

} // namespace bitspec
