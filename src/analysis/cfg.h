/**
 * @file
 * CFG utilities: orderings, predecessors and idempotence queries.
 */

#ifndef BITSPEC_ANALYSIS_CFG_H_
#define BITSPEC_ANALYSIS_CFG_H_

#include <map>
#include <vector>

#include "ir/function.h"

namespace bitspec
{

/** Blocks in reverse post order from the entry (reachable only). */
std::vector<BasicBlock *> reversePostOrder(Function &f);

/** Blocks reachable from the entry. */
std::vector<BasicBlock *> reachableBlocks(Function &f);

/** Block -> predecessors, in block order; blocks without
 *  predecessors have no entry. */
using PredecessorMap =
    std::map<const BasicBlock *, std::vector<BasicBlock *>>;

/**
 * Predecessor map. When @p handler_edges is set, every block of a
 * speculative region is additionally treated as a predecessor of the
 * region's handler — the SMIR predecessor rule (paper Eq. 2) that makes
 * liveness and register allocation correct under misspeculation.
 */
PredecessorMap predecessorMap(Function &f, bool handler_edges);

/**
 * Idempotent? (paper §3.2.3): a block that may be safely re-executed.
 * True iff the block contains no volatile operation, no call, and not
 * both loads and stores (Eq. 4: loads-only or stores-only blocks carry
 * no write-after-read dependency and re-execute safely).
 */
bool isIdempotent(const BasicBlock &bb);

/** Erase blocks unreachable from the entry; fixes up phi inputs. */
void removeUnreachableBlocks(Function &f);

/**
 * Split the critical edge from @p from to @p to by inserting a fresh
 * block; updates the terminator and @p to's phis. Returns the new block.
 */
BasicBlock *splitEdge(Function &f, BasicBlock *from, BasicBlock *to);

} // namespace bitspec

#endif // BITSPEC_ANALYSIS_CFG_H_
