/**
 * @file
 * Pre-decoded execution form of an IR function.
 *
 * Walking the IR directly would re-resolve operands, speculative-region
 * membership and phi predecessors on every dynamic instruction. A
 * DecodedFunction flattens a Function once into dense arrays the
 * execution loop can index:
 *
 *  - DecodedInst: opcode + widths + operand descriptors resolved to
 *    frame slots or inline immediates (constants and global addresses),
 *    with branch targets as block indices and the destination frame
 *    slot precomputed.
 *  - DecodedBlock: contiguous instruction range, the block's
 *    speculative-region ordinal and handler block index (replacing the
 *    per-call std::map<const BasicBlock*, SpecRegion*>), and its phi
 *    move lists.
 *  - PhiMove lists: one per (block, predecessor) pair, with the
 *    parallel copy sequentialised at decode time (cycles broken through
 *    a dedicated scratch slot) so block entry needs no temporary
 *    buffers and no allocation.
 *
 * Frame layout for a decoded call:
 *   [0, numSlots)                       SSA value slots (renumber() ids)
 *   [numSlots]                          parallel-copy scratch slot
 *   [numSlots + 1, numSlots + 1 + R)    per-region ForceFirst flags
 *
 * Decoding bakes in global addresses and instruction ids, so a cached
 * DecodedFunction is only valid while the module is structurally
 * unchanged; see Interpreter::invalidate().
 */

#ifndef BITSPEC_INTERP_DECODE_H_
#define BITSPEC_INTERP_DECODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/function.h"

namespace bitspec
{

/** An operand resolved at decode time. */
struct DecodedOperand
{
    /** Frame slot when >= 0; otherwise the operand is `imm`. */
    int32_t slot = -1;
    /** Inline immediate: constant value or global address. */
    uint64_t imm = 0;
};

/** One flattened instruction. */
struct DecodedInst
{
    Opcode op;
    CmpPred pred = CmpPred::EQ;
    /** Result width. For Call this is already the effective trunc
     *  width (declared bits, or 64 for void callees). */
    uint8_t bits = 0;
    /**
     * Secondary width: ICmp compares and casts/Ret/Output/Store
     * truncate at the operand's width; a speculative Load reads its
     * original (pre-squeeze) width from memory.
     */
    uint8_t auxBits = 0;
    bool speculative = false;
    /** Destination frame slot, or -1 when nothing is written. */
    int32_t dst = -1;
    /** Operand range in DecodedFunction::operands(). */
    uint32_t opBegin = 0;
    uint16_t opCount = 0;
    /** Block-index branch targets (Br: target0; CondBr: both). */
    uint32_t target0 = 0;
    uint32_t target1 = 0;
    /** Dense value-profile id; valid when dst >= 0. */
    uint32_t profileId = 0;
    Function *callee = nullptr;
    /** Originating instruction, for hooks and diagnostics only. */
    const Instruction *inst = nullptr;
};

/** One move of a sequentialised phi parallel copy. */
struct PhiMove
{
    int32_t dst;
    DecodedOperand src;
    /** Width the value is truncated to on write (64 = raw copy). */
    uint8_t bits;
    /** Dense value-profile id; valid when phi != nullptr. */
    uint32_t profileId = 0;
    /** Originating phi, or nullptr for a decoder scratch move (which
     *  does not count as an executed instruction). */
    const Instruction *phi = nullptr;
};

/** Phi moves to run when entering a block from one predecessor. */
struct PhiList
{
    /** Predecessor block index (DecodedFunction::kNoPred = entry). */
    uint32_t pred;
    /** Move range in DecodedFunction::phiMoves(). */
    uint32_t begin = 0;
    uint32_t count = 0;
};

/** One flattened basic block. */
struct DecodedBlock
{
    /** Non-phi instruction range in DecodedFunction::insts(). */
    uint32_t instBegin = 0;
    uint32_t instCount = 0;
    /** Block index of the speculative-region handler, or -1. */
    int32_t handler = -1;
    /** Dense region ordinal (ForceFirst flag index), or -1. */
    int32_t region = -1;
    /** PhiList range in DecodedFunction::phiLists(). */
    uint32_t phiBegin = 0;
    uint32_t phiListCount = 0;
    /** Block heads with phis: every entry edge must match a PhiList. */
    bool hasPhis = false;
};

/** A Function flattened for index-dispatched execution. */
class DecodedFunction
{
  public:
    /** Sentinel predecessor index for the initial entry. */
    static constexpr uint32_t kNoPred = UINT32_MAX;

    /**
     * Flatten @p f. Calls f->renumber() to refresh dense value ids.
     * Value-profile ids are assigned from @p profile_base upward, one
     * per assignment site (phi or value-producing instruction).
     */
    static std::unique_ptr<DecodedFunction> decode(Function *f,
                                                   uint32_t profile_base);

    Function *function() const { return fn_; }
    uint32_t entryIndex() const { return 0; }
    size_t numArgs() const { return argBits_.size(); }
    unsigned argBits(size_t i) const { return argBits_[i]; }

    /** Frame slots including scratch and ForceFirst flags. */
    unsigned frameSize() const { return frameSize_; }
    unsigned scratchSlot() const { return numSlots_; }
    unsigned forcedBase() const { return numSlots_ + 1; }

    const DecodedBlock &block(uint32_t i) const { return blocks_[i]; }
    uint32_t
    numBlocks() const
    {
        return static_cast<uint32_t>(blocks_.size());
    }

    /** @name Per-block execution-profile cell range.
     * The interpreter owns one dense cell array across all decoded
     * functions; this function's blocks occupy
     * [blockBase, blockBase + numBlocks). Assigned by the interpreter
     * right after decode (like profile_base for value-profile ids).
     */
    /// @{
    uint32_t blockBase() const { return blockBase_; }
    void setBlockBase(uint32_t base) { blockBase_ = base; }
    /// @}

    const DecodedInst *insts() const { return insts_.data(); }
    const DecodedOperand *operands() const { return pool_.data(); }
    const PhiMove *phiMoves() const { return phiMoves_.data(); }

    /** Name of block @p i, for diagnostics. */
    const std::string &blockName(uint32_t i) const;

    /** Move list for entering @p blk from predecessor @p pred, or
     *  nullptr when no phi consumes that edge. */
    const PhiList *
    findPhiList(const DecodedBlock &blk, uint32_t pred) const
    {
        const PhiList *pl = phiLists_.data() + blk.phiBegin;
        for (uint32_t i = 0; i < blk.phiListCount; ++i)
            if (pl[i].pred == pred)
                return pl + i;
        return nullptr;
    }

    /** Assignment sites in profile-id order (from profile_base). */
    const std::vector<const Instruction *> &profiledInsts() const
    {
        return profInsts_;
    }

  private:
    DecodedFunction() = default;

    Function *fn_ = nullptr;
    unsigned numSlots_ = 0;
    uint32_t blockBase_ = 0;
    unsigned frameSize_ = 0;
    std::vector<unsigned> argBits_;
    std::vector<DecodedBlock> blocks_;
    std::vector<DecodedInst> insts_;
    std::vector<DecodedOperand> pool_;
    std::vector<PhiMove> phiMoves_;
    std::vector<PhiList> phiLists_;
    std::vector<const BasicBlock *> blockPtrs_;
    std::vector<const Instruction *> profInsts_;
};

} // namespace bitspec

#endif // BITSPEC_INTERP_DECODE_H_
