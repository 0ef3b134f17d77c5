/**
 * @file
 * Misspeculation attribution: which speculative site misspeculated,
 * how often, and what it cost (paper Fig. 9 / §5 reasoning, made
 * queryable per region instead of as one aggregate counter).
 *
 * The pipeline threads a region identity end to end: the frontend
 * stamps source lines on IR instructions, the squeezer stamps
 * (id, srcLine) on each SpecRegion it creates, isel copies both onto
 * the region's MachBlocks, and layout/link place those blocks at flat
 * code indices. AttributionMap inverts that placement: flat index ->
 * (site, role), where role distinguishes the speculative member
 * blocks, their Eq. 1/2 skeleton slots, and the handler blocks.
 *
 * AttributionSink is the hot-path recorder the core (FastCore) drives
 * when (and only when) a sink is attached — one table load per
 * retired instruction, zero cost for runs without a sink (a
 * null-pointer test per retire).
 *
 * The report layer folds a finished run into per-region rows:
 * misspeculation count and rate, handler/skeleton instructions and
 * cycles, and an energy split (recovery + handler overhead vs. the
 * squeeze savings attributed proportionally to each region's
 * speculative instructions). The misspec-count column is exact —
 * tests assert the per-region sum equals
 * ActivityCounters::misspeculations; the energy columns are a model
 * estimate documented in DESIGN.md.
 */

#ifndef BITSPEC_OBS_ATTRIBUTION_H_
#define BITSPEC_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backend/mir.h"
#include "energy/model.h"

namespace bitspec
{

/** Static identity of one speculative region in a linked program. */
struct RegionSite
{
    std::string function;
    int regionId = -1;
    int srcLine = 0;         ///< 1-based; 0 when unknown.
    uint32_t entryIndex = 0; ///< Flat index of the region's first inst.
    /** Speculative non-interference verdict of the region's final
     *  lint (analysis/taint.h): undischarged leak sinks and sinks
     *  discharged by D1/D2/D5. Static facts, not run tallies. */
    int leakSites = 0;
    int leaksDischarged = 0;
};

/** Flat-index role classification. */
enum class IndexRole : uint8_t
{
    None = 0, ///< Outside any region artefact.
    Member,   ///< Speculative-area instruction of a region.
    Skeleton, ///< The member's Eq. 1/2 skeleton slot.
    Handler,  ///< Handler-block instruction.
};

/** Immutable flat-index -> region-site mapping for one program. */
class AttributionMap
{
  public:
    explicit AttributionMap(const MachProgram &prog);

    const std::vector<RegionSite> &sites() const { return sites_; }

    IndexRole
    roleAt(uint32_t idx) const
    {
        return idx < info_.size() ? info_[idx].role : IndexRole::None;
    }

    /** Site index at @p idx (any role), or -1. */
    int
    siteAt(uint32_t idx) const
    {
        return idx < info_.size() ? info_[idx].site : -1;
    }

    /** Site whose region entry sits at @p idx, or -1. */
    int
    entrySiteAt(uint32_t idx) const
    {
        return idx < info_.size() ? info_[idx].entrySite : -1;
    }

  private:
    struct IndexInfo
    {
        int32_t site = -1;
        int32_t entrySite = -1;
        IndexRole role = IndexRole::None;
    };

    std::vector<IndexInfo> info_;
    std::vector<RegionSite> sites_;
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
 * Recorder attached to a core run (FastCore::setAttribution). The
 * core calls onInst for every retired instruction with that instruction's
 * cycle cost, and onMisspec for every misspeculation redirect.
 */
class AttributionSink
{
  public:
    /** @p map must outlive the sink. */
    explicit AttributionSink(const AttributionMap &map) : map_(&map)
    {
        activity_.resize(map.sites().size());
    }

    void
    onInst(uint32_t idx, uint64_t cycles)
    {
        int entry = map_->entrySiteAt(idx);
        if (entry >= 0)
            ++activity_[static_cast<size_t>(entry)].entries;
        int site = map_->siteAt(idx);
        if (site < 0)
            return;
        RegionActivity &a = activity_[static_cast<size_t>(site)];
        switch (map_->roleAt(idx)) {
          case IndexRole::Member:
            ++a.specInsts;
            a.specCycles += cycles;
            break;
          case IndexRole::Skeleton:
            ++a.skeletonInsts;
            ++a.handlerInsts;
            a.handlerCycles += cycles;
            break;
          case IndexRole::Handler:
            ++a.handlerInsts;
            a.handlerCycles += cycles;
            break;
          case IndexRole::None:
            break;
        }
    }

    void
    onMisspec(uint32_t idx)
    {
        int site = map_->siteAt(idx);
        if (site >= 0)
            ++activity_[static_cast<size_t>(site)].misspecs;
        else
            ++unattributedMisspecs_;
    }

    const std::vector<RegionActivity> &activity() const
    {
        return activity_;
    }

    /** Sum of per-region misspeculation counts; tests assert this
     *  equals ActivityCounters::misspeculations. */
    uint64_t totalMisspecs() const;

    /** Misspeculations at indices outside every region (always 0 when
     *  the MIR verifier holds; kept as a tripwire). */
    uint64_t unattributedMisspecs() const { return unattributedMisspecs_; }

  private:
    const AttributionMap *map_;
    std::vector<RegionActivity> activity_;
    uint64_t unattributedMisspecs_ = 0;
};

/** One row of the per-site report. */
struct RegionReportRow
{
    RegionSite site;
    RegionActivity activity;
    double misspecRate = 0;   ///< misspecs / entries.
    double overheadPj = 0;    ///< Recovery + handler/skeleton energy.
    double savedPj = 0;       ///< Share of the gross squeeze savings.
    double netPj = 0;         ///< savedPj - overheadPj.
};

/** Inputs the energy columns need; zeros disable those columns. */
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
 * Fold one finished run into report rows (site order). Energy model:
 * overhead = misspecs * misspecRecovery + handlerInsts * avg-EPI;
 * gross savings = (baseline - squeezed) + total overhead, split
 * across regions proportionally to their speculative instruction
 * counts; net = saved - overhead.
 */
std::vector<RegionReportRow>
buildRegionReport(const AttributionMap &map, const AttributionSink &sink,
                  const RegionReportInputs &inputs);

/**
 * Render @p rows as an aligned table. @p source_file labels the
 * file:line provenance column (workloads are single-file programs).
 */
std::string formatRegionReport(const std::vector<RegionReportRow> &rows,
                               const std::string &source_file);

} // namespace bitspec

#endif // BITSPEC_OBS_ATTRIBUTION_H_
