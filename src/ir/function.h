/**
 * @file
 * Functions and speculative regions (paper §3.1.1).
 *
 * A SpecRegion is a set of basic blocks with a single handler block that
 * execution enters iff an instruction in the region misspeculates. This
 * implementation creates one region per speculative basic block (a
 * trivially single-entry/single-exit sequence), matching the paper's
 * per-block re-execution model: the handler extends the live variables
 * and re-runs the block's original-bitwidth clone.
 */

#ifndef BITSPEC_IR_FUNCTION_H_
#define BITSPEC_IR_FUNCTION_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/basic_block.h"
#include "ir/value.h"

namespace bitspec
{

class Module;

/** A speculative region: member blocks plus a unique handler. */
struct SpecRegion
{
    /** Blocks whose misspeculations route to this handler. */
    std::vector<BasicBlock *> blocks;
    /** Entered iff a member instruction misspeculates. */
    BasicBlock *handler = nullptr;
    /**
     * Stable per-function id assigned at creation by the squeezer.
     * Survives lint elision of sibling regions (ids keep holes), so
     * attribution rows keep their identity across config ablations.
     */
    int id = -1;
    /** 1-based source line of the first speculative instruction in
     *  the region; 0 when every member instruction is synthesized.
     *  Threaded into MIR so misspeculation attribution can report
     *  file:line provenance per region. */
    int srcLine = 0;
    /**
     * The region's checks: every speculative instruction in `blocks`,
     * in block instruction order. Emitted by the squeezer at region
     * creation and kept in sync by applyLintVerdicts (a check whose
     * speculative flag is dropped leaves the list; a region whose
     * list empties is deleted). The taint lint's roots and the
     * observability layer's per-region check counts both read this.
     */
    std::vector<const Instruction *> checks;
    /** Undischarged speculative non-interference sinks found by the
     *  taint lint (analysis/taint.h); threaded into MIR for
     *  per-region leak attribution. */
    int leakSites = 0;
    /** Tainted sinks the lint discharged with known-bits facts. */
    int leaksDischarged = 0;
};

/** An IR function: arguments, blocks and speculative-region metadata. */
class Function
{
  public:
    Function(std::string name, Type ret_type, std::vector<Type> param_types)
        : name_(std::move(name)), retType_(ret_type)
    {
        for (unsigned i = 0; i < param_types.size(); ++i) {
            args_.push_back(
                std::make_unique<Argument>(param_types[i], i));
            args_.back()->setName("arg" + std::to_string(i));
        }
    }

    const std::string &name() const { return name_; }
    Type retType() const { return retType_; }

    Module *parent() const { return parent_; }
    void setParent(Module *m) { parent_ = m; }

    /** @name Arguments */
    /// @{
    size_t numArgs() const { return args_.size(); }
    Argument *arg(size_t i) const { return args_.at(i).get(); }
    /// @}

    /** @name Blocks. The first block is the entry. */
    /// @{
    const std::vector<std::unique_ptr<BasicBlock>> &blocks() const
    {
        return blocks_;
    }
    std::vector<std::unique_ptr<BasicBlock>> &blocks() { return blocks_; }

    BasicBlock *
    entry() const
    {
        bsAssert(!blocks_.empty(), "entry(): function has no blocks");
        return blocks_.front().get();
    }

    BasicBlock *
    addBlock(const std::string &name)
    {
        return appendBlockNamed(uniqueName(name));
    }

    /** Append a block named @p name as given, without claiming the
     *  name in the uniquing state (cloneModule: the copied state
     *  already holds it, and a renamed source block may share it). */
    BasicBlock *
    appendBlockNamed(std::string name)
    {
        blocks_.push_back(std::make_unique<BasicBlock>(std::move(name)));
        blocks_.back()->setParent(this);
        return blocks_.back().get();
    }

    /** Remove blocks for which @p dead returns true (operands untouched). */
    template <typename Pred>
    void
    removeBlocksIf(Pred dead)
    {
        std::erase_if(blocks_, [&](const std::unique_ptr<BasicBlock> &bb) {
            return dead(bb.get());
        });
    }
    /// @}

    /** @name Speculative regions */
    /// @{
    SpecRegion *
    addSpecRegion()
    {
        specRegions_.push_back(std::make_unique<SpecRegion>());
        return specRegions_.back().get();
    }

    const std::vector<std::unique_ptr<SpecRegion>> &specRegions() const
    {
        return specRegions_;
    }

    std::vector<std::unique_ptr<SpecRegion>> &specRegionsMut()
    {
        return specRegions_;
    }

    void clearSpecRegions() { specRegions_.clear(); }

    /** Region containing @p bb, or nullptr. */
    SpecRegion *
    regionOf(const BasicBlock *bb) const
    {
        for (const auto &sr : specRegions_)
            for (BasicBlock *member : sr->blocks)
                if (member == bb)
                    return sr.get();
        return nullptr;
    }

    /** Region whose handler is @p bb, or nullptr. */
    SpecRegion *
    regionOfHandler(const BasicBlock *bb) const
    {
        for (const auto &sr : specRegions_)
            if (sr->handler == bb)
                return sr.get();
        return nullptr;
    }
    /// @}

    /** Replace all operand uses of @p from with @p to, function-wide. */
    void
    replaceAllUses(Value *from, Value *to)
    {
        for (auto &bb : blocks_)
            for (auto &inst : bb->insts())
                for (size_t i = 0; i < inst->numOperands(); ++i)
                    if (inst->operand(i) == from)
                        inst->setOperand(i, to);
    }

    /** True if any instruction uses @p v as an operand. */
    bool
    hasUses(const Value *v) const
    {
        for (const auto &bb : blocks_)
            for (const auto &inst : bb->insts())
                for (size_t i = 0; i < inst->numOperands(); ++i)
                    if (inst->operand(i) == v)
                        return true;
        return false;
    }

    /**
     * Assign dense ids to arguments and instructions; returns the total
     * number of slots. Interpreter frames and analyses index by id.
     */
    unsigned
    renumber()
    {
        unsigned id = 0;
        for (auto &a : args_)
            argIds_[a.get()] = id++;
        for (auto &bb : blocks_)
            for (auto &inst : bb->insts())
                inst->setId(id++);
        return id;
    }

    /** Dense id of @p v after renumber(); v must be an arg or instr. */
    unsigned
    valueId(const Value *v) const
    {
        if (v->kind() == ValueKind::Argument) {
            auto it = argIds_.find(static_cast<const Argument *>(v));
            bsAssert(it != argIds_.end(), "valueId: unknown argument");
            return it->second;
        }
        bsAssert(v->isInstruction(), "valueId: not an arg or instruction");
        return static_cast<const Instruction *>(v)->id();
    }

    /** Total dynamic-instruction count helpers. */
    size_t
    instructionCount() const
    {
        size_t n = 0;
        for (const auto &bb : blocks_)
            n += bb->insts().size();
        return n;
    }

    /** Predecessor map (plain CFG edges only; no handler edges). */
    std::map<const BasicBlock *, std::vector<BasicBlock *>>
    predecessors() const
    {
        std::map<const BasicBlock *, std::vector<BasicBlock *>> preds;
        for (const auto &bb : blocks_)
            for (BasicBlock *succ : bb->successors())
                preds[succ].push_back(bb.get());
        return preds;
    }

    /** Generate a block name unique within this function. */
    std::string
    uniqueName(const std::string &base)
    {
        if (usedNames_.insert(base).second)
            return base;
        for (;;) {
            std::string name =
                base + "." + std::to_string(nameCounter_++);
            if (usedNames_.insert(name).second)
                return name;
        }
    }

    /**
     * Copy the state of @p src that its blocks and arguments do not
     * show: the argument ids of its last renumber() and its
     * block-name uniquing state (names of deleted blocks stay taken).
     * cloneModule calls this so a copy names new blocks exactly as
     * @p src would. The arities must match.
     */
    void
    copyBookkeepingFrom(const Function &src)
    {
        bsAssert(src.args_.size() == args_.size(),
                 "copyBookkeepingFrom: arity mismatch");
        argIds_.clear();
        for (size_t i = 0; i < args_.size(); ++i) {
            auto it = src.argIds_.find(src.args_[i].get());
            if (it != src.argIds_.end())
                argIds_[args_[i].get()] = it->second;
        }
        usedNames_ = src.usedNames_;
        nameCounter_ = src.nameCounter_;
    }

  private:
    std::string name_;
    Type retType_;
    Module *parent_ = nullptr;
    std::vector<std::unique_ptr<Argument>> args_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    std::vector<std::unique_ptr<SpecRegion>> specRegions_;
    std::map<const Argument *, unsigned> argIds_;
    std::set<std::string> usedNames_;
    unsigned nameCounter_ = 0;
};

} // namespace bitspec

#endif // BITSPEC_IR_FUNCTION_H_
