/**
 * @file
 * Basic blocks: an instruction list ending in exactly one terminator.
 */

#ifndef BITSPEC_IR_BASIC_BLOCK_H_
#define BITSPEC_IR_BASIC_BLOCK_H_

#include <list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/instruction.h"
#include "support/error.h"

namespace bitspec
{

class Function;

/** A basic block owning its instructions. */
class BasicBlock
{
  public:
    using InstList = std::list<std::unique_ptr<Instruction>>;

    explicit BasicBlock(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    Function *parent() const { return parent_; }
    void setParent(Function *f) { parent_ = f; }

    InstList &insts() { return insts_; }
    const InstList &insts() const { return insts_; }
    bool empty() const { return insts_.empty(); }

    /** Append @p inst to the end of the block. */
    Instruction *
    append(std::unique_ptr<Instruction> inst)
    {
        inst->setParent(this);
        insts_.push_back(std::move(inst));
        return insts_.back().get();
    }

    /** Insert @p inst before @p pos; returns the inserted instruction. */
    Instruction *
    insertBefore(InstList::iterator pos, std::unique_ptr<Instruction> inst)
    {
        inst->setParent(this);
        return insts_.insert(pos, std::move(inst))->get();
    }

    /** Insert @p inst just before this block's terminator. */
    Instruction *
    insertBeforeTerm(std::unique_ptr<Instruction> inst)
    {
        bsAssert(!insts_.empty() && insts_.back()->isTerm(),
                 "insertBeforeTerm: no terminator");
        return insertBefore(std::prev(insts_.end()), std::move(inst));
    }

    /** The block's terminator; panics if the block has none yet. */
    Instruction *
    terminator() const
    {
        if (insts_.empty() || !insts_.back()->isTerm())
            panic("block has no terminator: " + name_);
        return insts_.back().get();
    }

    bool
    hasTerminator() const
    {
        return !insts_.empty() && insts_.back()->isTerm();
    }

    /** First non-phi instruction iterator. */
    InstList::iterator
    firstNonPhi()
    {
        auto it = insts_.begin();
        while (it != insts_.end() && (*it)->isPhi())
            ++it;
        return it;
    }

    /**
     * Successor blocks as given by the terminator: a view of a Br's or
     * CondBr's block operands, empty for any other terminator or none.
     * The view reads the terminator in place, so a split that
     * retargets one of its edges shows in it at once. Every caller
     * only reads it: none erases or replaces the terminator, or adds
     * or removes its block operands, while iterating the view.
     */
    std::span<BasicBlock *const>
    successors() const
    {
        if (!hasTerminator())
            return {};
        const Instruction *term = insts_.back().get();
        switch (term->op()) {
          case Opcode::Br:
          case Opcode::CondBr:
            return term->blockOperands();
          default:
            return {};
        }
    }

    /** True when the block starts with a phi. */
    bool
    hasPhis() const
    {
        return !insts_.empty() && insts_.front()->isPhi();
    }

    /** Phi instructions at the head of the block. */
    std::vector<Instruction *>
    phis() const
    {
        std::vector<Instruction *> out;
        for (const auto &inst : insts_) {
            if (!inst->isPhi())
                break;
            out.push_back(inst.get());
        }
        return out;
    }

  private:
    std::string name_;
    Function *parent_ = nullptr;
    InstList insts_;
};

} // namespace bitspec

#endif // BITSPEC_IR_BASIC_BLOCK_H_
