/**
 * @file
 * Activity counters driving the energy model (paper §4, RQ0/RQ1):
 * per-component event counts gathered by the core model, including
 * the 8-bit vs 32-bit register-file split of Fig. 11 and the dynamic
 * spill/copy accounting of Fig. 10.
 */

#ifndef BITSPEC_UARCH_COUNTERS_H_
#define BITSPEC_UARCH_COUNTERS_H_

#include <cstdint>

namespace bitspec
{

struct ActivityCounters
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;

    // ALU events by operand width.
    uint64_t alu32 = 0;
    uint64_t alu8 = 0;
    uint64_t mulDiv = 0;

    // Register-file events (Fig. 11). An 8-bit slice access uses 1/4
    // the energy of a 32-bit access (paper RQ1).
    uint64_t rfRead32 = 0;
    uint64_t rfWrite32 = 0;
    uint64_t rfRead8 = 0;
    uint64_t rfWrite8 = 0;

    // Memory operations.
    uint64_t loads = 0;
    uint64_t stores = 0;

    // Control flow.
    uint64_t branches = 0;
    uint64_t takenBranches = 0;
    uint64_t calls = 0;

    // Speculation.
    uint64_t misspeculations = 0;

    // Provenance-tagged dynamic instructions (Fig. 10).
    uint64_t dynSpillLoads = 0;
    uint64_t dynSpillStores = 0;
    uint64_t dynCopies = 0;

    uint64_t outputs = 0;

    bool operator==(const ActivityCounters &) const = default;
};

} // namespace bitspec

#endif // BITSPEC_UARCH_COUNTERS_H_
