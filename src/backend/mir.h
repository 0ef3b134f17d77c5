/**
 * @file
 * Machine IR: the backend's representation between instruction
 * selection and final layout (paper §3.3, SMIR).
 *
 * Virtual registers come in two classes: W (32-bit register) and B
 * (8-bit register slice). On the baseline ISA the selector never
 * creates B vregs, so the allocator is ISA-agnostic: slice packing
 * falls out of the operand classes alone.
 */

#ifndef BITSPEC_BACKEND_MIR_H_
#define BITSPEC_BACKEND_MIR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace bitspec
{

/** A machine basic block. */
struct MachBlock
{
    std::string name;
    int id = -1;
    /** The block's instructions from isel through layout.
     *  layoutFunction() emits them into MachFunction::code and then
     *  releases them: a laid-out block holds only its metadata. */
    std::vector<MachInst> insts;
    /** Handler block id when this block is in a speculative region;
     *  -1 otherwise (SMIR region membership). */
    int handlerBlock = -1;
    /** True when this block is a misspeculation handler. */
    bool isHandler = false;
    /** IR SpecRegion id this block belongs to (member blocks) or
     *  serves (handler blocks); -1 outside any region. Carried from
     *  the squeezer for misspeculation attribution. */
    int regionId = -1;
    /** Source line of the region (SpecRegion::srcLine); 0 unknown. */
    int regionSrcLine = 0;
    /** Speculative non-interference verdict of the region, carried
     *  from the final lint (SpecRegion::leakSites/leaksDischarged) so
     *  misspeculation attribution can report leak sites next to heat:
     *  undischarged taint sinks and sinks discharged by D1/D2/D5. */
    int regionLeakSites = 0;
    int regionLeaksDischarged = 0;
};

/** A machine function. */
struct MachFunction
{
    std::string name;
    int id = -1;
    std::vector<MachBlock> blocks; ///< blocks[i].id == i; [0] = entry.
    uint32_t numVRegs = 0;
    std::vector<bool> vregIsSlice; ///< Indexed by vreg id.

    /** Post-allocation frame info. */
    unsigned spillSlots = 0;
    std::vector<unsigned> usedCalleeSaved;
    bool hasCalls = false;

    /** Highest allocatable register (r11; r7 for Thumb-like). */
    unsigned lastAllocReg = 11;
    /** Two-address ALU constraint (Thumb-like). */
    bool twoAddress = false;

    /** Post-layout artefacts. `code` holds the laid-out function
     *  (branch targets local) from layoutFunction() until
     *  linkProgram() moves it into MachProgram::flat and releases it;
     *  the rest is kept for the program's life. */
    std::vector<MachInst> code;
    std::map<int, uint32_t> blockIndex; ///< Block id -> code index.
    uint32_t delta = 0;               ///< Misspec redirect distance.
    uint32_t baseAddr = 0;            ///< Assigned at link.
    uint32_t entryIndex = 0;          ///< Code index of the entry block.
    /** Instructions the function occupies in MachProgram::flat from
     *  baseAddr on: the size `code` had when linked. */
    uint32_t codeSize = 0;

    uint32_t
    newVReg(bool is_slice)
    {
        vregIsSlice.push_back(is_slice);
        return numVRegs++;
    }
};

/** A linked machine program. */
struct MachProgram
{
    static constexpr uint32_t kCodeBase = 0x400000;
    static constexpr uint32_t kStackTop = 0x3ffff0;
    static constexpr uint32_t kHaltAddr = 0xdead0000;

    std::vector<MachFunction> funcs;
    int entryFunc = -1;

    /** Fully linked instruction stream; index i lives at
     *  kCodeBase + i * kInstBytes. B/BL targets are flat indices. */
    std::vector<MachInst> flat;
    /** Per-function delta (flat-index granularity misspec redirect
     *  uses byte distance; delta is in bytes). */
    std::vector<uint32_t> funcOfIndex;

    uint32_t
    addrOf(uint32_t flat_index) const
    {
        return kCodeBase + flat_index * kInstBytes;
    }

    uint32_t
    indexOf(uint32_t addr) const
    {
        return (addr - kCodeBase) / kInstBytes;
    }
};

/** Backend statistics for the Fig. 10 accounting. */
struct BackendStats
{
    unsigned staticSpillLoads = 0;
    unsigned staticSpillStores = 0;
    unsigned staticCopies = 0;
    unsigned spilledVRegs = 0;
    unsigned staticInsts = 0;
    unsigned skeletonInsts = 0;

    bool operator==(const BackendStats &) const = default;
};

} // namespace bitspec

#endif // BITSPEC_BACKEND_MIR_H_
