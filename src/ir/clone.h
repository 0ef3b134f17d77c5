/**
 * @file
 * Cloning utilities shared by the inliner, loop unroller and squeezer,
 * plus whole-module deep copies for sharing one training run across
 * configurations.
 */

#ifndef BITSPEC_IR_CLONE_H_
#define BITSPEC_IR_CLONE_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/function.h"
#include "ir/module.h"

namespace bitspec
{

/** Mapping from original values/blocks to their clones. */
struct CloneMap
{
    std::map<Value *, Value *> values;
    std::map<BasicBlock *, BasicBlock *> blocks;

    /** Mapped value, or the value itself when unmapped (e.g. constants,
     *  values defined outside the cloned region). */
    Value *
    get(Value *v) const
    {
        auto it = values.find(v);
        return it == values.end() ? v : it->second;
    }

    BasicBlock *
    get(BasicBlock *bb) const
    {
        auto it = blocks.find(bb);
        return it == blocks.end() ? bb : it->second;
    }
};

/**
 * Clone @p src_blocks into @p dst (which may equal the source function),
 * remapping operands and phi incoming blocks through the returned map.
 * Block names get @p suffix appended. References to values or blocks
 * outside @p src_blocks are left pointing at the originals.
 */
CloneMap cloneBlocks(const std::vector<BasicBlock *> &src_blocks,
                     Function *dst, const std::string &suffix);

/** Clone a single instruction without inserting it anywhere. */
std::unique_ptr<Instruction> cloneInstruction(const Instruction *inst);

/** Source -> copy of every argument and instruction of a module. */
using ValueMap = std::unordered_map<const Value *, Value *>;

/**
 * Deep-copy @p src. The copy prints exactly as @p src does and
 * transforms treat it exactly alike:
 *  - globals keep their byte images and addresses;
 *  - arguments, blocks and instructions keep their names, and
 *    instructions their ids;
 *  - each function keeps its block-name uniquing state, so blocks a
 *    later transform adds get the same names on both;
 *  - callees point at the copy's functions, and constants and global
 *    refs are re-interned in the copy;
 *  - speculative regions are remapped onto the copy's blocks.
 *
 * @p src is only read, so any number of threads may clone one module
 * at once. When @p map is non-null it receives the copy of every
 * argument and instruction.
 */
std::unique_ptr<Module> cloneModule(const Module &src,
                                    ValueMap *map = nullptr);

/** Copy only @p src's globals, with their byte images and addresses:
 *  the state a run input mutates and a core loads. Only reads
 *  @p src, like cloneModule. */
std::unique_ptr<Module> cloneGlobals(const Module &src);

} // namespace bitspec

#endif // BITSPEC_IR_CLONE_H_
