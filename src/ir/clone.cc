#include "ir/clone.h"

namespace bitspec
{

std::unique_ptr<Instruction>
cloneInstruction(const Instruction *inst)
{
    auto copy = std::make_unique<Instruction>(inst->op(), inst->type());
    copy->setName(inst->name());
    for (Value *op : inst->operands())
        copy->addOperand(op);
    for (BasicBlock *bb : inst->blockOperands())
        copy->addBlockOperand(bb);
    copy->setPred(inst->pred());
    copy->setCallee(inst->callee());
    copy->setSpeculative(inst->isSpeculative());
    copy->setGuard(inst->isGuard());
    copy->setSpecOrigBits(inst->specOrigBits());
    copy->setSrcLine(inst->srcLine());
    return copy;
}

CloneMap
cloneBlocks(const std::vector<BasicBlock *> &src_blocks, Function *dst,
            const std::string &suffix)
{
    CloneMap map;

    // Pass 1: create empty clone blocks.
    for (BasicBlock *bb : src_blocks)
        map.blocks[bb] = dst->addBlock(bb->name() + suffix);

    // Pass 2: clone instructions, recording the value mapping.
    for (BasicBlock *bb : src_blocks) {
        BasicBlock *nbb = map.blocks[bb];
        for (const auto &inst : bb->insts()) {
            Instruction *copy = nbb->append(cloneInstruction(inst.get()));
            map.values[inst.get()] = copy;
        }
    }

    // Pass 3: remap operands and block operands through the clone map.
    for (BasicBlock *bb : src_blocks) {
        BasicBlock *nbb = map.blocks[bb];
        for (auto &inst : nbb->insts()) {
            for (size_t i = 0; i < inst->numOperands(); ++i)
                inst->setOperand(i, map.get(inst->operand(i)));
            for (size_t i = 0; i < inst->blockOperands().size(); ++i)
                inst->setBlockOperand(i, map.get(inst->blockOperand(i)));
        }
    }

    return map;
}

std::unique_ptr<Module>
cloneGlobals(const Module &src)
{
    auto dst = std::make_unique<Module>();
    for (const auto &g : src.globals()) {
        Global *ng =
            dst->addGlobal(g->name(), g->elemBits(), g->elemCount());
        ng->setData(g->data());
        ng->setAddress(g->address());
    }
    return dst;
}

std::unique_ptr<Module>
cloneModule(const Module &src, ValueMap *map)
{
    std::unique_ptr<Module> dst = cloneGlobals(src);
    std::unordered_map<const Global *, Global *> globals;
    for (size_t i = 0; i < src.globals().size(); ++i)
        globals.emplace(src.globals()[i].get(), dst->globals()[i].get());

    ValueMap local;
    ValueMap &values = map ? *map : local;
    std::unordered_map<const Function *, Function *> funcs;
    std::unordered_map<const BasicBlock *, BasicBlock *> blocks;

    // Pass 1: function shells with their arguments and empty blocks,
    // so calls and branches can point forward.
    for (const auto &f : src.functions()) {
        std::vector<Type> params;
        for (size_t i = 0; i < f->numArgs(); ++i)
            params.push_back(f->arg(i)->type());
        Function *nf =
            dst->addFunction(f->name(), f->retType(), std::move(params));
        for (size_t i = 0; i < f->numArgs(); ++i) {
            nf->arg(i)->setName(f->arg(i)->name());
            values.emplace(f->arg(i), nf->arg(i));
        }
        nf->copyBookkeepingFrom(*f);
        for (const auto &bb : f->blocks())
            blocks.emplace(bb.get(), nf->appendBlockNamed(bb->name()));
        funcs.emplace(f.get(), nf);
    }

    // Pass 2: instructions, operands still pointing into the source.
    for (const auto &f : src.functions()) {
        for (const auto &bb : f->blocks()) {
            BasicBlock *nbb = blocks.at(bb.get());
            for (const auto &inst : bb->insts()) {
                Instruction *copy =
                    nbb->append(cloneInstruction(inst.get()));
                copy->setId(inst->id());
                if (inst->callee())
                    copy->setCallee(funcs.at(inst->callee()));
                values.emplace(inst.get(), copy);
            }
        }
    }

    // Pass 3: remap operands into the copy.
    auto remap = [&](Value *v) -> Value * {
        switch (v->kind()) {
          case ValueKind::Constant:
            return dst->getConst(v->type(),
                                 static_cast<Constant *>(v)->value());
          case ValueKind::GlobalRef:
            return dst->getGlobalRef(
                globals.at(static_cast<GlobalRef *>(v)->global()));
          case ValueKind::Argument:
          case ValueKind::Instruction:
            break;
        }
        auto it = values.find(v);
        bsAssert(it != values.end(),
                 "cloneModule: operand defined outside the module");
        return it->second;
    };
    for (const auto &f : dst->functions()) {
        for (const auto &bb : f->blocks()) {
            for (const auto &inst : bb->insts()) {
                for (size_t i = 0; i < inst->numOperands(); ++i)
                    inst->setOperand(i, remap(inst->operand(i)));
                for (size_t i = 0; i < inst->blockOperands().size(); ++i)
                    inst->setBlockOperand(
                        i, blocks.at(inst->blockOperand(i)));
            }
        }
    }

    // Pass 4: speculative regions.
    for (const auto &f : src.functions()) {
        Function *nf = funcs.at(f.get());
        for (const auto &sr : f->specRegions()) {
            SpecRegion *nsr = nf->addSpecRegion();
            for (BasicBlock *member : sr->blocks)
                nsr->blocks.push_back(blocks.at(member));
            nsr->handler = sr->handler ? blocks.at(sr->handler) : nullptr;
            nsr->id = sr->id;
            nsr->srcLine = sr->srcLine;
            for (const Instruction *check : sr->checks)
                nsr->checks.push_back(
                    static_cast<const Instruction *>(values.at(check)));
            nsr->leakSites = sr->leakSites;
            nsr->leaksDischarged = sr->leaksDischarged;
        }
    }
    return dst;
}

} // namespace bitspec
