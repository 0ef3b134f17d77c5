/**
 * @file
 * The expander (paper §3.2.1): aggressive function inlining and loop
 * unrolling, "instantiating dynamic code paths as static control
 * flow". Expansion unlocks narrowing opportunities and trades static
 * code size for fewer dynamic instructions; BitSpec then absorbs the
 * register pressure it creates (paper §2.5, Fig. 3, RQ4).
 *
 * The search space mirrors the paper's autotuner: unroll factor, max
 * function size and max loop size.
 */

#ifndef BITSPEC_TRANSFORM_EXPANDER_H_
#define BITSPEC_TRANSFORM_EXPANDER_H_

#include "ir/module.h"

namespace bitspec
{

/** Expander knobs (the paper's autotuner search space). */
struct ExpanderOptions
{
    /** Max times any loop is unrolled (1 = no unrolling). */
    unsigned unrollFactor = 4;
    /** Max static instructions allowed in a function when inlining. */
    unsigned maxFunctionSize = 2000;
    /** Max static instructions in a loop body for it to be unrolled. */
    unsigned maxLoopSize = 60;
    /** Master switch (RQ4 disables the whole expander). */
    bool enabled = true;

    bool operator==(const ExpanderOptions &) const = default;
};

/** Expansion statistics. */
struct ExpandStats
{
    unsigned inlinedCalls = 0;
    unsigned unrolledLoops = 0;

    bool operator==(const ExpandStats &) const = default;
};

/** Inline + unroll every function of @p m per @p opts. */
ExpandStats expandModule(Module &m, const ExpanderOptions &opts);

} // namespace bitspec

#endif // BITSPEC_TRANSFORM_EXPANDER_H_
