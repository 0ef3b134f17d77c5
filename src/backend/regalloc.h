/**
 * @file
 * Linear-scan register allocation over 32-bit registers and 8-bit
 * slices (paper §3.3.3).
 *
 * All slices are exposed as subregisters: a W vreg occupies all four
 * slices of r4..r11; a B vreg occupies a single slice, preferring
 * registers that already hold other slices (register packing — the
 * mechanism behind Fig. 10/11). Liveness uses the SMIR predecessor
 * rule: blocks of a speculative region are predecessors of their
 * handler, so values the handler consumes stay allocated across the
 * whole region. Values defined inside a region are dead at the
 * handler (Theorem 3.1), which makes spill placement safe without
 * further constraints.
 */

#ifndef BITSPEC_BACKEND_REGALLOC_H_
#define BITSPEC_BACKEND_REGALLOC_H_

#include <span>
#include <vector>

#include "backend/mir.h"

namespace bitspec
{

/**
 * The vregs live into and out of each block of a function before
 * allocation, by block id, each list ascending (compressed rows:
 * block b's live-in vregs are in[inStart[b] .. inStart[b + 1])).
 */
struct MirLiveness
{
    std::vector<uint32_t> inStart, in;
    std::vector<uint32_t> outStart, out;

    std::span<const uint32_t>
    liveIn(size_t block) const
    {
        return {in.data() + inStart[block],
                in.data() + inStart[block + 1]};
    }

    std::span<const uint32_t>
    liveOut(size_t block) const
    {
        return {out.data() + outStart[block],
                out.data() + outStart[block + 1]};
    }
};

/**
 * Liveness of @p mf's vregs (blocks[i].id == i), the least fixed point
 * of live-in = upward-exposed uses + (live-out - defs) and live-out =
 * union of the successors' live-in. A block's successors are its
 * trailing branches' targets and, for a block of a speculative region,
 * the region's handler (the SMIR predecessor rule, Eq. 2). Computed
 * sparsely: each vreg walks back from the blocks that use it before
 * any definition, over predecessors, stopping at blocks that define
 * it; vregs in ascending order.
 */
MirLiveness computeMirLiveness(const MachFunction &mf);

/** Allocate @p mf in place; returns spill statistics. */
BackendStats allocateRegisters(MachFunction &mf);

} // namespace bitspec

#endif // BITSPEC_BACKEND_REGALLOC_H_
