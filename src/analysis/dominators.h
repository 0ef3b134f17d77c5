/**
 * @file
 * Dominator tree (Cooper–Harvey–Kennedy iterative algorithm), built
 * on reverse-post-order indices. A depth-first walk of the tree
 * numbers every block on entry and exit, so dominance is two integer
 * compares.
 */

#ifndef BITSPEC_ANALYSIS_DOMINATORS_H_
#define BITSPEC_ANALYSIS_DOMINATORS_H_

#include <unordered_map>
#include <vector>

#include "ir/function.h"

namespace bitspec
{

/** Dominator tree over the reachable blocks of a function. */
class DomTree
{
  public:
    explicit DomTree(Function &f);

    /** Immediate dominator; the entry's idom is itself. */
    BasicBlock *idom(BasicBlock *bb) const;

    /** Does @p a dominate @p b? (Reflexive.) */
    bool dominates(BasicBlock *a, BasicBlock *b) const;

    /**
     * Does the definition @p def dominate the use site (@p user inside
     * @p use_block)? For phis the use site is the incoming block's end.
     */
    bool dominatesUse(const Instruction *def, const Instruction *user,
                      size_t operand_index) const;

    /** True iff @p bb was reachable when the tree was built. */
    bool isReachable(BasicBlock *bb) const
    {
        return index_.count(bb) > 0;
    }

  private:
    /** Reachable blocks in reverse post order, and their indices. */
    std::vector<BasicBlock *> rpo_;
    std::unordered_map<const BasicBlock *, unsigned> index_;
    /** Per RPO index: the immediate dominator's index, and the tree
     *  walk's entry and exit numbers. */
    std::vector<unsigned> idom_;
    std::vector<unsigned> enter_;
    std::vector<unsigned> exit_;
};

} // namespace bitspec

#endif // BITSPEC_ANALYSIS_DOMINATORS_H_
