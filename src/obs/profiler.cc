#include "obs/profiler.h"

#include <algorithm>
#include <map>

#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

BlockMap::BlockMap(const MachProgram &prog)
{
    info_.resize(prog.flat.size());
    // Per region: whether a member block with code has set its entry.
    std::vector<bool> has_entry;

    for (const MachFunction &mf : prog.funcs) {
        const uint32_t base = prog.indexOf(mf.baseAddr);
        const uint32_t spec_insts = mf.delta / kInstBytes;

        // Recover each block's emitted [start, end) range from
        // blockIndex: ranges are delimited by the next-larger start,
        // and speculative-area (member) blocks are clamped to the
        // speculative area because their Eq. 1/2 skeleton slots sit
        // between them and the next laid-out block.
        std::vector<std::pair<uint32_t, int>> starts; // (index, block)
        starts.reserve(mf.blockIndex.size());
        for (const auto &[block_id, start] : mf.blockIndex)
            starts.emplace_back(start, block_id);
        std::sort(starts.begin(), starts.end());

        // This function's regions by id, registered in layout order.
        std::map<int, int> region_of;

        for (size_t k = 0; k < starts.size(); ++k) {
            const auto [start, block_id] = starts[k];
            const MachBlock &mb =
                mf.blocks[static_cast<size_t>(block_id)];
            uint32_t end = k + 1 < starts.size()
                               ? starts[k + 1].first
                               : mf.codeSize;
            const bool member = !mb.isHandler && mb.handlerBlock >= 0;
            if (member)
                end = std::min(end, spec_insts);

            BlockSite site;
            site.function = mf.name;
            site.block = mb.name;
            site.blockId = mb.id;
            site.regionId = mb.regionId;
            site.srcLine = mb.regionSrcLine;
            site.isHandler = mb.isHandler;
            site.startIndex = base + start;
            site.staticInsts =
                end > start ? (end - start) * (member ? 2 : 1) : 0;
            if (mb.regionId >= 0) {
                const auto [it, added] = region_of.emplace(
                    mb.regionId, static_cast<int>(regions_.size()));
                if (added) {
                    RegionSite region;
                    region.function = mf.name;
                    region.regionId = mb.regionId;
                    region.srcLine = mb.regionSrcLine;
                    region.entryIndex = base;
                    region.leakSites = mb.regionLeakSites;
                    region.leaksDischarged = mb.regionLeaksDischarged;
                    regions_.push_back(std::move(region));
                    has_entry.push_back(false);
                }
                site.region = it->second;
                const auto r = static_cast<size_t>(it->second);
                if (member && start < end && !has_entry[r]) {
                    regions_[r].entryIndex = site.startIndex;
                    has_entry[r] = true;
                }
            }
            sites_.push_back(std::move(site));
            const auto s = static_cast<int32_t>(sites_.size() - 1);

            for (uint32_t j = start; j < end; ++j) {
                IndexInfo &ii = info_[base + j];
                ii.site = s;
                ii.head = j == start;
                if (member) {
                    // The skeleton slot of member instruction j sits
                    // at j + Delta/4; fold it into the member block.
                    IndexInfo &sk = info_[base + spec_insts + j];
                    sk.site = s;
                    sk.head = false;
                    sk.skeleton = true;
                }
            }
        }
    }

    // The linker's _start stub is one synthetic site, which completes
    // the partition; any other index no block claims is a map bug.
    BlockSite stub;
    stub.function = "_start";
    stub.block = "_start";
    stub.staticInsts = MachProgram::kStartStubInsts;
    sites_.push_back(std::move(stub));
    for (uint32_t i = 0; i < MachProgram::kStartStubInsts; ++i) {
        bsAssert(i < info_.size() && info_[i].site < 0,
                 "BlockMap: the _start stub is missing or claimed");
        info_[i].site = static_cast<int32_t>(sites_.size() - 1);
        info_[i].head = i == 0;
    }
    for (size_t i = 0; i < info_.size(); ++i)
        if (info_[i].site < 0)
            panic(strFormat("BlockMap: flat index %zu is claimed by no "
                            "block", i));
}

uint64_t
BlockProfilerSink::totalInsts() const
{
    uint64_t n = unattributed_;
    for (const BlockActivity &a : activity_)
        n += a.insts;
    return n;
}

uint64_t
BlockProfilerSink::totalCycles() const
{
    uint64_t n = 0;
    for (const BlockActivity &a : activity_)
        n += a.cycles;
    return n;
}

uint64_t
BlockProfilerSink::totalMisspecs() const
{
    uint64_t n = 0;
    for (const BlockActivity &a : activity_)
        n += a.misspecs;
    return n;
}

std::vector<RegionActivity>
BlockProfilerSink::regionActivity() const
{
    const std::vector<BlockSite> &sites = map_->sites();
    const std::vector<RegionSite> &regions = map_->regions();
    std::vector<RegionActivity> out(regions.size());
    for (size_t s = 0; s < sites.size(); ++s) {
        const BlockSite &site = sites[s];
        if (site.region < 0)
            continue;
        const BlockActivity &b = activity_[s];
        const SkeletonTally &k = skeleton_[s];
        RegionActivity &r = out[static_cast<size_t>(site.region)];
        r.misspecs += b.misspecs;
        if (!site.isRegionMember()) {
            r.handlerInsts += b.insts;
            r.handlerCycles += b.cycles;
            continue;
        }
        // Only the entry block's head (empty blocks sharing its start
        // retire nothing) counts as a region entry.
        if (site.startIndex ==
            regions[static_cast<size_t>(site.region)].entryIndex)
            r.entries += b.entries;
        r.specInsts += b.insts - k.insts;
        r.specCycles += b.cycles - k.cycles;
        r.skeletonInsts += k.insts;
        r.handlerInsts += k.insts;
        r.handlerCycles += k.cycles;
    }
    return out;
}

uint64_t
BlockProfilerSink::unattributedMisspecs() const
{
    uint64_t n = 0;
    for (size_t s = 0; s < activity_.size(); ++s)
        if (map_->sites()[s].region < 0)
            n += activity_[s].misspecs;
    return n;
}

std::vector<RegionReportRow>
buildRegionReport(const BlockMap &map, const BlockProfilerSink &sink,
                  const RegionReportInputs &inputs)
{
    const auto &regions = map.regions();
    bsAssert(sink.activity().size() == map.sites().size(),
             "region report: sink built from a different map");
    const std::vector<RegionActivity> activity = sink.regionActivity();

    const double avg_epi =
        inputs.totalInstructions
            ? inputs.totalEnergyPj /
                  static_cast<double>(inputs.totalInstructions)
            : 0.0;

    std::vector<RegionReportRow> rows;
    rows.reserve(regions.size());
    double overhead_total = 0;
    uint64_t spec_insts_total = 0;
    for (size_t i = 0; i < regions.size(); ++i) {
        RegionReportRow row;
        row.site = regions[i];
        row.activity = activity[i];
        row.misspecRate =
            row.activity.entries
                ? static_cast<double>(row.activity.misspecs) /
                      static_cast<double>(row.activity.entries)
                : 0.0;
        row.overheadPj =
            static_cast<double>(row.activity.misspecs) *
                inputs.energy.misspecRecovery +
            static_cast<double>(row.activity.handlerInsts) * avg_epi;
        overhead_total += row.overheadPj;
        spec_insts_total += row.activity.specInsts;
        rows.push_back(std::move(row));
    }

    // Gross savings: what squeezing bought before paying for its
    // misspeculations, attributed proportionally to each region's
    // dynamic speculative instructions.
    if (inputs.baselineEnergyPj > 0 && spec_insts_total > 0) {
        const double gross = (inputs.baselineEnergyPj -
                              inputs.totalEnergyPj) +
                             overhead_total;
        for (RegionReportRow &row : rows) {
            row.savedPj =
                gross *
                (static_cast<double>(row.activity.specInsts) /
                 static_cast<double>(spec_insts_total));
            row.netPj = row.savedPj - row.overheadPj;
        }
    } else {
        for (RegionReportRow &row : rows)
            row.netPj = -row.overheadPj;
    }
    return rows;
}

std::string
formatRegionReport(const std::vector<RegionReportRow> &rows,
                   const std::string &source_file)
{
    std::string out = strFormat(
        "%-26s %-18s %10s %9s %8s %9s %9s %11s %11s %11s %9s\n",
        "region", "site", "entries", "misspecs", "rate", "hnd_inst",
        "hnd_cyc", "overhead_pJ", "saved_pJ", "net_pJ", "sni");
    for (const RegionReportRow &r : rows) {
        std::string region = strFormat("%s#%d", r.site.function.c_str(),
                                       r.site.regionId);
        std::string site = strFormat("%s:%d", source_file.c_str(),
                                     r.site.srcLine);
        // Speculative non-interference verdict: clean, all sinks
        // discharged, or the number of undischarged leak sites.
        std::string sni =
            r.site.leakSites > 0
                ? strFormat("%d leak%s", r.site.leakSites,
                            r.site.leakSites == 1 ? "" : "s")
                : (r.site.leaksDischarged > 0 ? "disch" : "clean");
        out += strFormat("%-26s %-18s %10llu %9llu %8.4f %9llu %9llu "
                         "%11.1f %11.1f %11.1f %9s\n",
                         region.c_str(), site.c_str(),
                         static_cast<unsigned long long>(
                             r.activity.entries),
                         static_cast<unsigned long long>(
                             r.activity.misspecs),
                         r.misspecRate,
                         static_cast<unsigned long long>(
                             r.activity.handlerInsts),
                         static_cast<unsigned long long>(
                             r.activity.handlerCycles),
                         r.overheadPj, r.savedPj, r.netPj,
                         sni.c_str());
    }
    return out;
}

std::vector<HeatRow>
buildHeatReport(const BlockMap &map, const BlockProfilerSink &sink,
                const HeatReportInputs &inputs)
{
    const auto &sites = map.sites();
    const auto &activity = sink.activity();
    bsAssert(sites.size() == activity.size(),
             "heat report: sink built from a different map");

    const uint64_t tot_insts = sink.totalInsts();
    const uint64_t tot_cycles = sink.totalCycles();
    const uint64_t tot_misspecs = sink.totalMisspecs();

    // Exact energy split: the cycle-proportional pipeline cost and the
    // per-misspec recovery cost are attributed directly; every other
    // event energy (ALU, RF, caches) is apportioned by retired
    // instructions. The three parts sum back to totalEnergyPj.
    const double remainder =
        inputs.totalEnergyPj -
        inputs.energy.pipelinePerCycle *
            static_cast<double>(tot_cycles) -
        inputs.energy.misspecRecovery *
            static_cast<double>(tot_misspecs);

    std::vector<HeatRow> rows;
    rows.reserve(sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
        HeatRow row;
        row.site = sites[i];
        row.activity = activity[i];
        row.cyclesPct =
            tot_cycles ? 100.0 *
                             static_cast<double>(row.activity.cycles) /
                             static_cast<double>(tot_cycles)
                       : 0.0;
        row.ipc = row.activity.cycles
                      ? static_cast<double>(row.activity.insts) /
                            static_cast<double>(row.activity.cycles)
                      : 0.0;
        if (inputs.totalEnergyPj > 0) {
            row.energyPj =
                inputs.energy.pipelinePerCycle *
                    static_cast<double>(row.activity.cycles) +
                inputs.energy.misspecRecovery *
                    static_cast<double>(row.activity.misspecs) +
                (tot_insts
                     ? remainder *
                           (static_cast<double>(row.activity.insts) /
                            static_cast<double>(tot_insts))
                     : 0.0);
        }
        rows.push_back(std::move(row));
    }

    std::sort(rows.begin(), rows.end(),
              [](const HeatRow &a, const HeatRow &b) {
                  if (a.activity.cycles != b.activity.cycles)
                      return a.activity.cycles > b.activity.cycles;
                  if (a.activity.insts != b.activity.insts)
                      return a.activity.insts > b.activity.insts;
                  return a.site.startIndex < b.site.startIndex;
              });
    return rows;
}

std::string
formatHeatListing(const std::vector<HeatRow> &rows,
                  const std::string &source_file, size_t top_n)
{
    std::string out = strFormat(
        "%4s %-30s %-16s %-8s %10s %12s %12s %6s %6s %11s %9s\n", "#",
        "block", "site", "kind", "entries", "insts", "cycles", "cyc%",
        "ipc", "energy_pJ", "misspecs");
    size_t shown = 0;
    for (const HeatRow &r : rows) {
        if (shown >= top_n || r.activity.insts == 0)
            break;
        std::string block = strFormat(
            "%s:%s", r.site.function.c_str(), r.site.block.c_str());
        std::string site =
            r.site.srcLine > 0
                ? strFormat("%s:%d", source_file.c_str(),
                            r.site.srcLine)
                : "-";
        const char *kind = r.site.isHandler     ? "handler"
                           : r.site.regionId >= 0 ? "region"
                                                  : "plain";
        out += strFormat(
            "%4zu %-30s %-16s %-8s %10llu %12llu %12llu %6.2f %6.2f "
            "%11.1f %9llu\n",
            shown + 1, block.c_str(), site.c_str(), kind,
            static_cast<unsigned long long>(r.activity.entries),
            static_cast<unsigned long long>(r.activity.insts),
            static_cast<unsigned long long>(r.activity.cycles),
            r.cyclesPct, r.ipc, r.energyPj,
            static_cast<unsigned long long>(r.activity.misspecs));
        ++shown;
    }
    return out;
}

std::string
foldedStacks(const std::vector<HeatRow> &rows,
             const std::string &source_file)
{
    std::string out;
    for (const HeatRow &r : rows) {
        if (r.activity.cycles == 0)
            continue;
        std::string leaf =
            r.site.isHandler ? r.site.block + "_(handler)"
                             : r.site.block;
        std::string mid =
            r.site.regionId >= 0
                ? strFormat("%s#region%d", r.site.function.c_str(),
                            r.site.regionId)
                : r.site.function;
        std::string root =
            r.site.srcLine > 0
                ? strFormat("%s:%d", source_file.c_str(),
                            r.site.srcLine)
                : source_file;
        out += strFormat("%s;%s;%s %llu\n", root.c_str(), mid.c_str(),
                         leaf.c_str(),
                         static_cast<unsigned long long>(
                             r.activity.cycles));
    }
    return out;
}

} // namespace bitspec
