/**
 * @file
 * Guest-level per-retire observation: which MachBlocks and which
 * speculative regions burn the cycles, where they came from in the
 * source, what misspeculation cost (paper Fig. 9 / §5 reasoning, made
 * queryable per region and per block), and how execution evolves over
 * time.
 *
 * The pipeline threads a region identity end to end: the frontend
 * stamps source lines on IR instructions, the squeezer stamps
 * (id, srcLine) on each SpecRegion it creates, isel copies both onto
 * the region's MachBlocks, and layout/link place those blocks at flat
 * code indices. Three layers invert that placement:
 *
 *  - BlockMap statically partitions every flat code index of a linked
 *    MachProgram into block sites. The partition is total: the
 *    _start stub, handlers, skeleton slots (folded into their member
 *    block, but flagged) and plain blocks are all covered, so dynamic
 *    per-block sums reconcile exactly against the core's aggregate
 *    ActivityCounters. It also holds the region table: one RegionSite
 *    per (function, region id), each block site naming its region.
 *
 *  - BlockProfilerSink is the hot-path recorder the core drives when
 *    attached (FastCore::setBlockProfiler): one array bump per retired
 *    instruction (two on a skeleton slot), one null-pointer test per
 *    retire when detached. Invariants (ctest-enforced): sum of
 *    per-block insts == counters.instructions, sum of cycles ==
 *    counters.cycles, sum of misspecs == counters.misspeculations.
 *    Per-region tallies are a group-by over the block rows.
 *
 *  - The report layer renders a finished run: a heat-ranked annotated
 *    listing (top-N blocks by cycles with file:line provenance),
 *    folded stacks (source line -> SpecRegion -> MachBlock weighted by
 *    cycles) for flamegraph.pl / speedscope, and per-region rows with
 *    an energy split (recovery + handler overhead vs. the squeeze
 *    savings attributed proportionally to each region's speculative
 *    instructions).
 *
 * Per-block and per-region energy is a model split, not a counter:
 * pipeline energy follows cycles, recovery follows misspecs, and the
 * remaining event energy is apportioned by retired instructions; the
 * block split sums back to the run's total energy by construction.
 */

#ifndef BITSPEC_OBS_PROFILER_H_
#define BITSPEC_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backend/mir.h"
#include "energy/model.h"

namespace bitspec
{

/** Static identity of one profiled block site. */
struct BlockSite
{
    std::string function;
    std::string block;       ///< MachBlock name ("_start" for the stub).
    int blockId = -1;        ///< MachBlock id; -1 for the stub site.
    int regionId = -1;       ///< SpecRegion id, or -1 outside regions.
    int region = -1;         ///< Index into BlockMap::regions(), or -1.
    int srcLine = 0;         ///< Region source line; 0 when unknown.
    bool isHandler = false;
    uint32_t startIndex = 0; ///< First flat index of the block.
    uint32_t staticInsts = 0; ///< Emitted instructions (incl. skeleton).

    /** A speculative-area block of its region (not its handler). */
    bool isRegionMember() const { return regionId >= 0 && !isHandler; }
};

/** Static identity of one speculative region in a linked program. */
struct RegionSite
{
    std::string function;
    int regionId = -1;
    int srcLine = 0;         ///< 1-based; 0 when unknown.
    /** Head of the region's first member block with code (layout
     *  order): executions of this index count as region entries. */
    uint32_t entryIndex = 0;
    /** Speculative non-interference verdict of the region's final
     *  lint (analysis/taint.h): undischarged leak sinks and sinks
     *  discharged by D1/D2/D5. Static facts, not run tallies. */
    int leakSites = 0;
    int leaksDischarged = 0;
};

/**
 * Immutable flat-index -> block-site partition for one program.
 * Every index of prog.flat maps to exactly one site; Eq. 1/2 skeleton
 * slots map to the member block that owns them (slot j serves member
 * instruction j, paper §3.4) and are flagged as skeleton slots. The
 * synthetic _start site holds exactly the linker's stub, indices
 * [0, MachProgram::kStartStubInsts); the constructor panics, naming
 * the index, when any other index is claimed by no block.
 * Regions are registered per function in layout order, the first
 * time one of their blocks (member or handler) is laid out. Built
 * from function and block metadata alone (baseAddr, codeSize, delta,
 * blockIndex): a linked function holds no instructions.
 */
class BlockMap
{
  public:
    explicit BlockMap(const MachProgram &prog);

    const std::vector<BlockSite> &sites() const { return sites_; }
    const std::vector<RegionSite> &regions() const { return regions_; }

    /** Site index at @p idx, or -1 out of range. */
    int
    siteAt(uint32_t idx) const
    {
        return idx < info_.size() ? info_[idx].site : -1;
    }

    /** True when @p idx is the first instruction of its block (used
     *  to count block entries on the fall-through-free stub too). */
    bool
    isBlockHead(uint32_t idx) const
    {
        return idx < info_.size() && info_[idx].head;
    }

    /** True when @p idx is a member instruction's Eq. 1/2 skeleton
     *  slot. */
    bool
    isSkeleton(uint32_t idx) const
    {
        return idx < info_.size() && info_[idx].skeleton;
    }

    size_t numIndices() const { return info_.size(); }

  private:
    friend class BlockProfilerSink;

    struct IndexInfo
    {
        int32_t site = -1;
        bool head = false;
        bool skeleton = false;
    };

    std::vector<IndexInfo> info_;
    std::vector<BlockSite> sites_;
    std::vector<RegionSite> regions_;
};

/** Dynamic per-block tallies of one run. */
struct BlockActivity
{
    uint64_t entries = 0;  ///< Retirements of the block head.
    uint64_t insts = 0;    ///< Instructions retired in the block.
    uint64_t cycles = 0;   ///< Cycles charged to those retirements.
    uint64_t misspecs = 0; ///< Misspeculations raised in the block.
};

/** Dynamic per-region tallies of one run. */
struct RegionActivity
{
    uint64_t entries = 0;       ///< Executions of the region entry.
    uint64_t misspecs = 0;
    uint64_t specInsts = 0;     ///< Member-block instructions retired.
    uint64_t specCycles = 0;
    uint64_t skeletonInsts = 0; ///< Redirect-path skeleton branches.
    uint64_t handlerInsts = 0;
    uint64_t handlerCycles = 0; ///< Includes skeleton-branch cycles.
};

/**
 * Recorder attached to a core run (FastCore::setBlockProfiler). The
 * core calls onInst for every retired instruction with its cycle cost
 * and onMisspec for every misspeculation redirect.
 */
class BlockProfilerSink
{
  public:
    /** @p map must outlive the sink. */
    explicit BlockProfilerSink(const BlockMap &map) : map_(&map)
    {
        activity_.resize(map.sites().size());
        skeleton_.resize(map.sites().size());
    }

    void
    onInst(uint32_t idx, uint64_t cycles)
    {
        if (idx >= map_->info_.size()) {
            ++unattributed_;
            return;
        }
        const BlockMap::IndexInfo &ii = map_->info_[idx];
        const auto s = static_cast<size_t>(ii.site);
        BlockActivity &a = activity_[s];
        a.entries += ii.head;
        ++a.insts;
        a.cycles += cycles;
        if (ii.skeleton) {
            ++skeleton_[s].insts;
            skeleton_[s].cycles += cycles;
        }
    }

    void
    onMisspec(uint32_t idx)
    {
        if (idx >= map_->info_.size()) {
            ++unattributed_;
            return;
        }
        ++activity_[static_cast<size_t>(map_->info_[idx].site)]
              .misspecs;
    }

    const std::vector<BlockActivity> &activity() const
    {
        return activity_;
    }

    /** @name Aggregates; tests assert these equal the corresponding
     *  ActivityCounters fields exactly. */
    /// @{
    uint64_t totalInsts() const;
    uint64_t totalCycles() const;
    uint64_t totalMisspecs() const;
    /// @}

    /** Events at indices outside the map (always 0 — the map is a
     *  total partition; kept as a tripwire). */
    uint64_t unattributed() const { return unattributed_; }

    /**
     * The block rows grouped by region, in BlockMap::regions() order.
     * Member blocks give specInsts/specCycles, and their skeleton
     * slots give skeletonInsts plus handler instructions and cycles;
     * handler blocks give handler instructions and cycles; every block
     * of the region gives misspecs; the entry block's head gives
     * entries.
     */
    std::vector<RegionActivity> regionActivity() const;

    /** Misspeculations in blocks outside every region (always 0 when
     *  the MIR verifier holds; kept as a tripwire). */
    uint64_t unattributedMisspecs() const;

  private:
    /** The part of a member block's activity retired on its skeleton
     *  slots (the redirect path after a misspeculation). */
    struct SkeletonTally
    {
        uint64_t insts = 0;
        uint64_t cycles = 0;
    };

    const BlockMap *map_;
    std::vector<BlockActivity> activity_;
    std::vector<SkeletonTally> skeleton_; ///< Per block.
    uint64_t unattributed_ = 0;
};

/** One row of the per-region report. */
struct RegionReportRow
{
    RegionSite site;
    RegionActivity activity;
    double misspecRate = 0;   ///< misspecs / entries.
    double overheadPj = 0;    ///< Recovery + handler/skeleton energy.
    double savedPj = 0;       ///< Share of the gross squeeze savings.
    double netPj = 0;         ///< savedPj - overheadPj.
};

/** Inputs the region report's energy columns need; zeros disable
 *  those columns. */
struct RegionReportInputs
{
    EnergyParams energy;
    /** Squeezed run totals (for the average-EPI handler estimate). */
    uint64_t totalInstructions = 0;
    double totalEnergyPj = 0;
    /** Unsqueezed-baseline total energy of the same workload/input;
     *  0 when no baseline run is available. */
    double baselineEnergyPj = 0;
};

/**
 * Fold one finished run into per-region rows (region order). Energy
 * model: overhead = misspecs * misspecRecovery + handlerInsts *
 * avg-EPI; gross savings = (baseline - squeezed) + total overhead,
 * split across regions proportionally to their speculative
 * instruction counts; net = saved - overhead. The misspec column is
 * exact (it sums to ActivityCounters::misspeculations); the energy
 * columns are a model estimate documented in DESIGN.md.
 */
std::vector<RegionReportRow>
buildRegionReport(const BlockMap &map, const BlockProfilerSink &sink,
                  const RegionReportInputs &inputs);

/**
 * Render @p rows as an aligned table. @p source_file labels the
 * file:line provenance column (workloads are single-file programs).
 */
std::string formatRegionReport(const std::vector<RegionReportRow> &rows,
                               const std::string &source_file);

/** One row of the heat report, ranked by cycles. */
struct HeatRow
{
    BlockSite site;
    BlockActivity activity;
    double cyclesPct = 0; ///< Share of the run's total cycles.
    double ipc = 0;       ///< insts / cycles within the block.
    double energyPj = 0;  ///< Model split (see file comment).
};

/** Inputs for the heat report's derived columns. */
struct HeatReportInputs
{
    EnergyParams energy;
    /** Run total energy in pJ; 0 disables the energy column. */
    double totalEnergyPj = 0;
};

/**
 * Fold one finished run into heat rows sorted by cycles descending
 * (never-executed blocks sort last). The energy column splits
 * @p inputs.totalEnergyPj exactly: pipelinePerCycle * cycles +
 * misspecRecovery * misspecs per block, remainder proportional to
 * retired instructions — so the rows sum back to the total.
 */
std::vector<HeatRow> buildHeatReport(const BlockMap &map,
                                     const BlockProfilerSink &sink,
                                     const HeatReportInputs &inputs);

/**
 * Render the top @p top_n executed rows as an annotated listing.
 * @p source_file labels the file:line provenance column.
 */
std::string formatHeatListing(const std::vector<HeatRow> &rows,
                              const std::string &source_file,
                              size_t top_n);

/**
 * Folded-stack output for flamegraph.pl / speedscope: one line per
 * executed block, "file:line;function#regionN;block weight" with the
 * cycle count as the weight (frames without a region collapse to
 * "file;function;block").
 */
std::string foldedStacks(const std::vector<HeatRow> &rows,
                         const std::string &source_file);

} // namespace bitspec

#endif // BITSPEC_OBS_PROFILER_H_
