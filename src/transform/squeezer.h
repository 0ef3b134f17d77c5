/**
 * @file
 * The squeezer (paper §3.2.3): speculatively reassigns the bitwidth of
 * variables and injects misspeculation handling.
 *
 * Speculative mode (the BitSpec system):
 *  ① prepareCFG (Eq. 4–6), then the CFG is cloned into CFG_spec
 *    (the new entry) and CFG_orig (reachable only via handlers).
 *  ② Variables whose profile-guided selection BW(v) fits a slice are
 *    rewritten to 8 bits in CFG_spec; operands are truncated
 *    (speculatively when the producer stays wide); the original
 *    instruction is mutated into a zext of the narrow clone so all
 *    wide uses keep working. One speculative region per block that
 *    may misspeculate.
 *  ③ Each region gets a handler that extends live variables to their
 *    original width and branches to Orig(B); re-entry phis (Eq. 8)
 *    and full SSA repair make the remainder of the function run at
 *    the original bitwidth, establishing Theorems 3.1/3.2 by
 *    construction.
 *
 * Exact mode (speculate = false; the paper's RQ2 "register packing
 * without speculation"): narrows only what demanded-bits analysis
 * proves, with no cloning, regions, or handlers.
 */

#ifndef BITSPEC_TRANSFORM_SQUEEZER_H_
#define BITSPEC_TRANSFORM_SQUEEZER_H_

#include "ir/module.h"
#include "profile/bitwidth_profile.h"

namespace bitspec
{

/** Squeezer configuration (ablation switches map to paper RQ2/RQ3). */
struct SqueezeOptions
{
    Heuristic heuristic = Heuristic::Max;
    /** false: exact demanded-bits narrowing only (RQ2). */
    bool speculate = true;
    /** Compare elimination (§3.2.4). */
    bool compareElimination = true;
    /** Bitmask elision: `and x, 0xff` as an exact slice move (RQ3). */
    bool bitmaskElision = true;
    /**
     * Known-bits static analysis: admits provably-narrow values as
     * exact (check-free) candidates even without profile data, and
     * runs the speculative-safety lint afterwards to drop checks the
     * analysis proves can never fire (eliding whole regions when
     * their last check disappears).
     */
    bool staticAnalysis = true;
};

/** Transformation statistics for the paper's ablation tables. */
struct SqueezeStats
{
    unsigned narrowed = 0;       ///< Instructions moved to 8 bits.
    unsigned regions = 0;        ///< Speculative regions created.
    unsigned specTruncs = 0;     ///< Speculative truncates inserted.
    unsigned comparesEliminated = 0;
    unsigned bitmasksElided = 0;
    /** Candidates admitted by known-bits proof (no profile needed). */
    unsigned staticNarrowed = 0;
    /** Speculative checks dropped by the lint (proven safe). */
    unsigned checksDropped = 0;
    /** Regions deleted after their last check was dropped. */
    unsigned regionsElided = 0;
    /** Lint verdict tallies (pre-elision classification). */
    unsigned lintProvenSafe = 0;
    unsigned lintProvenUnsafe = 0;
    unsigned lintSpeculative = 0;
    /** Undischarged speculative non-interference sinks (SpecLeak
     *  findings — see analysis/taint.h); zero on every shipped
     *  workload. */
    unsigned lintSpecLeaks = 0;
    /** Tainted sinks discharged with known-bits facts (D1/D2). */
    unsigned lintLeaksDischarged = 0;

    SqueezeStats &
    operator+=(const SqueezeStats &o)
    {
        narrowed += o.narrowed;
        regions += o.regions;
        specTruncs += o.specTruncs;
        comparesEliminated += o.comparesEliminated;
        bitmasksElided += o.bitmasksElided;
        staticNarrowed += o.staticNarrowed;
        checksDropped += o.checksDropped;
        regionsElided += o.regionsElided;
        lintProvenSafe += o.lintProvenSafe;
        lintProvenUnsafe += o.lintProvenUnsafe;
        lintSpeculative += o.lintSpeculative;
        lintSpecLeaks += o.lintSpecLeaks;
        lintLeaksDischarged += o.lintLeaksDischarged;
        return *this;
    }

    bool operator==(const SqueezeStats &) const = default;
};

/** Squeeze one function. The profile must have been gathered on the
 *  same module instance (instruction pointers key the statistics). */
SqueezeStats squeezeFunction(Function &f, const BitwidthProfile &profile,
                             const SqueezeOptions &opts);

/** Squeeze every function of @p m and verify the result. */
SqueezeStats squeezeModule(Module &m, const BitwidthProfile &profile,
                           const SqueezeOptions &opts);

} // namespace bitspec

#endif // BITSPEC_TRANSFORM_SQUEEZER_H_
