/**
 * @file
 * IR-level liveness over dense value ids.
 *
 * The constructor calls Function::renumber(), so arguments take ids
 * [0, numArgs) and instructions follow in block and instruction
 * order; live sets are bitsets over those ids. liveIn()/liveOut()
 * list values in ascending id order — arguments first, then block and
 * instruction order — a pure function of the IR, never of heap
 * addresses, which is what lets the squeezer emit handler code in
 * liveness order.
 *
 * When built with handler edges, blocks of speculative regions count as
 * predecessors of their handler (paper Eq. 2): anything the handler
 * needs is treated as live throughout the region, which is exactly what
 * makes re-execution after a mid-block misspeculation sound.
 *
 * Results describe the function as it was at construction: ids go
 * stale once instructions are added or removed.
 */

#ifndef BITSPEC_ANALYSIS_LIVENESS_H_
#define BITSPEC_ANALYSIS_LIVENESS_H_

#include <unordered_map>
#include <vector>

#include "ir/function.h"
#include "support/bitset.h"

namespace bitspec
{

/** Per-block live-in/live-out sets of Values (args + instructions). */
class Liveness
{
  public:
    /**
     * @param f Function to analyse; renumber() is called on it.
     * @param handler_edges Apply the SMIR predecessor rule (Eq. 2).
     */
    Liveness(Function &f, bool handler_edges);

    /** Values live into @p bb in id order; empty for unknown blocks. */
    std::vector<Value *> liveIn(const BasicBlock *bb) const;
    /** Values live out of @p bb in id order. */
    std::vector<Value *> liveOut(const BasicBlock *bb) const;

    bool
    isLiveIn(const Value *v, const BasicBlock *bb) const
    {
        return contains(liveIn_, v, bb);
    }

    bool
    isLiveOut(const Value *v, const BasicBlock *bb) const
    {
        return contains(liveOut_, v, bb);
    }

  private:
    /** Id of @p v, or values_.size() when @p v is not one of the
     *  function's arguments or instructions. */
    size_t idOf(const Value *v) const;
    bool contains(const std::vector<BitSet> &sets, const Value *v,
                  const BasicBlock *bb) const;
    std::vector<Value *> members(const std::vector<BitSet> &sets,
                                 const BasicBlock *bb) const;

    std::vector<Value *> values_; ///< Id -> value.
    std::unordered_map<const BasicBlock *, size_t> blockIndex_;
    std::vector<BitSet> liveIn_;  ///< By block index.
    std::vector<BitSet> liveOut_; ///< By block index.
};

} // namespace bitspec

#endif // BITSPEC_ANALYSIS_LIVENESS_H_
