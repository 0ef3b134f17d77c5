/**
 * @file
 * Per-event energy model standing in for the paper's 45 nm gate-level
 * implementation (paper §4.1).
 *
 * Each architectural event carries a fixed energy cost; total energy
 * is the dot product with the activity counters plus a per-cycle
 * pipeline cost (clock tree, control, leakage) that also charges
 * stall cycles — reproducing the paper's observation that removing
 * loads reduces both D$ and pipeline energy. The 8-bit register-file
 * and ALU events cost a quarter of their 32-bit counterparts (paper
 * RQ1: "8-bit register slice accesses incur 1/4 the energy").
 *
 * Absolute joules differ from the authors' Synopsys flow; relative
 * trends (component breakdown, BASELINE vs BITSPEC deltas) are what
 * the substitution preserves.
 */

#ifndef BITSPEC_ENERGY_MODEL_H_
#define BITSPEC_ENERGY_MODEL_H_

#include "uarch/cache.h"
#include "uarch/counters.h"

namespace bitspec
{

/** Per-event energies in picojoules (45 nm-class, 1.2 V). */
struct EnergyParams
{
    double alu32 = 3.0;
    double alu8 = 0.75;        ///< Quarter-width ALU slice.
    double mulDiv = 9.0;
    double rfRead32 = 1.2;
    double rfWrite32 = 1.8;
    double rfRead8 = 0.3;      ///< 1/4 of the 32-bit access (RQ1).
    double rfWrite8 = 0.45;
    double icacheAccess = 6.0;
    double dcacheAccess = 8.0;
    double l2Access = 30.0;
    double dramAccess = 1500.0;
    double pipelinePerCycle = 5.0;
    double misspecRecovery = 20.0;
};

/** Component breakdown matching paper Fig. 9. */
struct EnergyBreakdown
{
    double alu = 0;
    double regfile = 0;
    double dcache = 0;   ///< Includes the data-side L2/DRAM energy.
    double icache = 0;   ///< Includes the fetch-side L2/DRAM energy.
    double pipeline = 0; ///< Cycle-proportional + recovery.

    double
    total() const
    {
        return alu + regfile + dcache + icache + pipeline;
    }

    bool operator==(const EnergyBreakdown &) const = default;
};

/** Evaluate the model on one finished run's raw observables. */
EnergyBreakdown computeEnergy(const ActivityCounters &counters,
                              const CacheStats &l1i,
                              const CacheStats &l1d,
                              const DramStats &dram,
                              const EnergyParams &params = {});
/** The same, with the stats read from the run's hierarchy. */
EnergyBreakdown computeEnergy(const ActivityCounters &counters,
                              const MemoryHierarchy &mem,
                              const EnergyParams &params = {});

} // namespace bitspec

#endif // BITSPEC_ENERGY_MODEL_H_
