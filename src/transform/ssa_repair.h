/**
 * @file
 * SSA repair after introducing alternate definitions of a value.
 *
 * When a misspeculation handler re-enters CFG_orig at BB_orig, every
 * value live into BB_orig gains a second definition (the phi of
 * Eq. 8 merging the handler's extension with the original). Uses
 * reachable from any BB_orig must then be rewritten, inserting join
 * phis on demand — the classic SSAUpdater problem, generalised here
 * to many handlers feeding many re-entry blocks for one value.
 */

#ifndef BITSPEC_TRANSFORM_SSA_REPAIR_H_
#define BITSPEC_TRANSFORM_SSA_REPAIR_H_

#include <vector>

#include "analysis/cfg.h"
#include "ir/module.h"

namespace bitspec
{

/** One re-entry point for a repaired value. */
struct AltDef
{
    /** Block entered from the handler (BB_orig). A phi is created at
     *  its top. */
    BasicBlock *block = nullptr;
    /** The handler predecessor of @p block. */
    BasicBlock *handlerPred = nullptr;
    /** Value flowing in from the handler (the Eq. 8 extension). */
    Value *handlerValue = nullptr;
};

/** Every re-entry point of one repaired value. */
struct SSARepair
{
    /** The original definition whose uses are rewritten. */
    Value *orig = nullptr;
    std::vector<AltDef> alts;
};

/**
 * For each repair, rewrite the uses of its value so that paths
 * flowing through any of its AltDef blocks observe the merged value,
 * inserting phis at joins on demand. Each AltDef gets a phi at the
 * top of its block whose incoming from @p handlerPred is
 * @p handlerValue and whose other incomings are the reaching
 * definitions. Types must all match, and no value may appear twice.
 *
 * Repairs run in order, so phis land in the same places as one call
 * per value would put them. One sweep collects the uses of every
 * repaired value up front: a repair inserts phis only for its own
 * value and rewrites only operands equal to it, so no repair adds or
 * removes a use of another.
 *
 * @p preds is @p f's plain predecessor map (predecessorMap(f, false)).
 * Repair inserts phis only, never edges, so one map built after the
 * last CFG edit serves every repair.
 */
void repairSSA(Function &f, const PredecessorMap &preds,
               const std::vector<SSARepair> &repairs);

} // namespace bitspec

#endif // BITSPEC_TRANSFORM_SSA_REPAIR_H_
