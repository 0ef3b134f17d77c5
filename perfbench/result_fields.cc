#include "result_fields.h"

#include <cstring>

#include "support/str.h"

namespace bitspec::perfbench
{

namespace
{

class FieldList
{
  public:
    void
    add(const std::string &name, uint64_t v)
    {
        fields_.push_back({name, v, std::to_string(v)});
    }

    void
    add(const std::string &name, double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        fields_.push_back({name, bits, strFormat("%.17g", v)});
    }

    std::vector<ResultField> take() { return std::move(fields_); }

  private:
    std::vector<ResultField> fields_;
};

void
addCache(FieldList &f, const std::string &p, const CacheStats &c)
{
    f.add(p + ".accesses", c.accesses);
    f.add(p + ".misses", c.misses);
    f.add(p + ".writebacks", c.writebacks);
}

} // namespace

std::vector<ResultField>
resultFields(const RunResult &r)
{
    FieldList f;
    f.add("returnValue", uint64_t{r.returnValue});
    f.add("outputChecksum", r.outputChecksum);

    const ActivityCounters &c = r.counters;
    f.add("counters.instructions", c.instructions);
    f.add("counters.cycles", c.cycles);
    f.add("counters.alu32", c.alu32);
    f.add("counters.alu8", c.alu8);
    f.add("counters.mulDiv", c.mulDiv);
    f.add("counters.rfRead32", c.rfRead32);
    f.add("counters.rfWrite32", c.rfWrite32);
    f.add("counters.rfRead8", c.rfRead8);
    f.add("counters.rfWrite8", c.rfWrite8);
    f.add("counters.loads", c.loads);
    f.add("counters.stores", c.stores);
    f.add("counters.branches", c.branches);
    f.add("counters.takenBranches", c.takenBranches);
    f.add("counters.calls", c.calls);
    f.add("counters.misspeculations", c.misspeculations);
    f.add("counters.dynSpillLoads", c.dynSpillLoads);
    f.add("counters.dynSpillStores", c.dynSpillStores);
    f.add("counters.dynCopies", c.dynCopies);
    f.add("counters.outputs", c.outputs);

    addCache(f, "l1i", r.l1i);
    addCache(f, "l1d", r.l1d);
    addCache(f, "l2", r.l2);
    f.add("dram.reads", r.dram.reads);
    f.add("dram.writes", r.dram.writes);

    f.add("energy.alu", r.energy.alu);
    f.add("energy.regfile", r.energy.regfile);
    f.add("energy.dcache", r.energy.dcache);
    f.add("energy.icache", r.energy.icache);
    f.add("energy.pipeline", r.energy.pipeline);
    f.add("totalEnergy", r.totalEnergy);
    f.add("epi", r.epi);
    f.add("meanVoltage", r.meanVoltage);

    const SqueezeStats &s = r.squeezeStats;
    f.add("squeeze.narrowed", uint64_t{s.narrowed});
    f.add("squeeze.regions", uint64_t{s.regions});
    f.add("squeeze.specTruncs", uint64_t{s.specTruncs});
    f.add("squeeze.comparesEliminated", uint64_t{s.comparesEliminated});
    f.add("squeeze.bitmasksElided", uint64_t{s.bitmasksElided});
    f.add("squeeze.staticNarrowed", uint64_t{s.staticNarrowed});
    f.add("squeeze.checksDropped", uint64_t{s.checksDropped});
    f.add("squeeze.regionsElided", uint64_t{s.regionsElided});
    f.add("squeeze.lintProvenSafe", uint64_t{s.lintProvenSafe});
    f.add("squeeze.lintProvenUnsafe", uint64_t{s.lintProvenUnsafe});
    f.add("squeeze.lintSpeculative", uint64_t{s.lintSpeculative});
    f.add("squeeze.lintSpecLeaks", uint64_t{s.lintSpecLeaks});
    f.add("squeeze.lintLeaksDischarged",
          uint64_t{s.lintLeaksDischarged});

    f.add("expand.inlinedCalls", uint64_t{r.expandStats.inlinedCalls});
    f.add("expand.unrolledLoops",
          uint64_t{r.expandStats.unrolledLoops});

    const BackendStats &b = r.backendStats;
    f.add("backend.staticSpillLoads", uint64_t{b.staticSpillLoads});
    f.add("backend.staticSpillStores", uint64_t{b.staticSpillStores});
    f.add("backend.staticCopies", uint64_t{b.staticCopies});
    f.add("backend.spilledVRegs", uint64_t{b.spilledVRegs});
    f.add("backend.staticInsts", uint64_t{b.staticInsts});
    f.add("backend.skeletonInsts", uint64_t{b.skeletonInsts});
    return f.take();
}

std::optional<std::string>
firstDifference(const RunResult &a, const RunResult &b)
{
    const std::vector<ResultField> fa = resultFields(a);
    const std::vector<ResultField> fb = resultFields(b);
    for (size_t i = 0; i < fa.size(); ++i)
        if (fa[i].bits != fb[i].bits)
            return fa[i].name + ": " + fa[i].text + " vs " + fb[i].text;
    return std::nullopt;
}

void
digestResults(Hash128Builder &h, const std::vector<RunResult> &results)
{
    for (const RunResult &r : results) {
        for (const ResultField &f : resultFields(r)) {
            h.update(f.name);
            h.updateU64(f.bits);
        }
    }
}

} // namespace bitspec::perfbench
