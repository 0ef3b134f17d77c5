#include "energy/model.h"

namespace bitspec
{

EnergyBreakdown
computeEnergy(const ActivityCounters &c, const CacheStats &l1i,
              const CacheStats &l1d, const DramStats &dram,
              const EnergyParams &p)
{
    EnergyBreakdown e;
    e.alu = p.alu32 * static_cast<double>(c.alu32) +
            p.alu8 * static_cast<double>(c.alu8) +
            p.mulDiv * static_cast<double>(c.mulDiv);
    e.regfile = p.rfRead32 * static_cast<double>(c.rfRead32) +
                p.rfWrite32 * static_cast<double>(c.rfWrite32) +
                p.rfRead8 * static_cast<double>(c.rfRead8) +
                p.rfWrite8 * static_cast<double>(c.rfWrite8);

    // Fetch side: every instruction accesses the I$; misses go to L2
    // (and DRAM). L2/DRAM energy is charged to the requesting side.
    double i_l2 = static_cast<double>(l1i.misses);
    e.icache = p.icacheAccess * static_cast<double>(l1i.accesses) +
               p.l2Access * i_l2;

    double d_l2 = static_cast<double>(l1d.misses) +
                  static_cast<double>(l1d.writebacks);
    e.dcache = p.dcacheAccess * static_cast<double>(l1d.accesses) +
               p.l2Access * d_l2 +
               p.dramAccess * static_cast<double>(dram.reads + dram.writes);

    e.pipeline = p.pipelinePerCycle * static_cast<double>(c.cycles) +
                 p.misspecRecovery *
                     static_cast<double>(c.misspeculations);
    return e;
}

EnergyBreakdown
computeEnergy(const ActivityCounters &c, const MemoryHierarchy &m,
              const EnergyParams &p)
{
    return computeEnergy(c, m.l1i(), m.l1d(), m.dram(), p);
}

} // namespace bitspec
