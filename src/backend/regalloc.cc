#include "backend/regalloc.h"

#include <algorithm>
#include <set>
#include <vector>

#include "support/bitset.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

/** A live interval as a set of disjoint [start, end] segments.
 *
 * Segments (rather than one [min, max] range) matter enormously for
 * BitSpec: values live into a misspeculation handler are used again
 * in the cold CFG_orig clone, and a single-range allocator would
 * stretch them across every hot loop in between, spilling the world.
 */
struct Interval
{
    uint32_t vreg = 0;
    bool isSlice = false;
    int start = 0; ///< First segment start (sort key).
    std::vector<std::pair<int, int>> segs; ///< Sorted, disjoint.
    int assignedReg = -1;
    int assignedSlice = -1;
    bool spilled = false;
    unsigned slot = 0;
};

/**
 * Busy segments assigned to one physical slot.
 *
 * Only conflict-free intervals are added, so the segments are
 * disjoint and, sorted by start, sorted by end too: a conflict check
 * is one binary search per interval segment. Adjacent segments are
 * deliberately not coalesced: allocSlice packs by segment count.
 */
struct SlotBusy
{
    std::vector<std::pair<int, int>> segs; ///< Sorted, disjoint.

    bool
    conflicts(const Interval &iv) const
    {
        auto from = segs.begin();
        for (const auto &[s, e] : iv.segs) {
            // First busy segment ending at or after s.
            from = std::partition_point(
                from, segs.end(),
                [s](const std::pair<int, int> &b) { return b.second < s; });
            if (from == segs.end())
                return false;
            if (from->first <= e)
                return true;
        }
        return false;
    }

    void
    add(const Interval &iv)
    {
        auto mid = segs.insert(segs.end(), iv.segs.begin(), iv.segs.end());
        std::inplace_merge(segs.begin(), mid, segs.end());
    }
};

class Allocator
{
  public:
    explicit Allocator(MachFunction &mf)
        : mf_(mf), lastAlloc_(mf.lastAllocReg)
    {
        unsigned nregs = lastAlloc_ - kFirstAlloc + 1;
        wholeBusy_.resize(nregs);
        sliceBusy_.resize(nregs * 4);
    }

    BackendStats
    run()
    {
        numberInstructions();
        computeLiveness();
        buildIntervals();
        scan();
        rewrite();
        collectStats();
        return stats_;
    }

  private:
    template <typename Fn>
    static void
    forEachVReg(MachInst &inst, Fn fn)
    {
        bool dst_is_use = inst.op == MOp::STR || inst.op == MOp::STRH ||
                          inst.op == MOp::STRB || inst.op == MOp::STRB8;
        bool dst_also_use =
            ((inst.op == MOp::MOV || inst.op == MOp::MOV8) &&
             inst.cond != Cond::AL) ||
            inst.op == MOp::MOVT;
        if (inst.dst.isVReg())
            fn(inst.dst, !dst_is_use, dst_is_use || dst_also_use);
        if (inst.a.isVReg())
            fn(inst.a, false, true);
        if (inst.b.isVReg())
            fn(inst.b, false, true);
    }

    void
    numberInstructions()
    {
        const size_t n = mf_.blocks.size();
        blockStart_.resize(n);
        blockEnd_.resize(n);
        int pos = 0;
        for (size_t b = 0; b < n; ++b) {
            if (mf_.blocks[b].id != static_cast<int>(b))
                panic("regalloc: " + mf_.name + ": block ids must be "
                      "block indices");
            blockStart_[b] = pos;
            pos += static_cast<int>(mf_.blocks[b].insts.size());
            blockEnd_[b] = pos; // One past the last.
        }
    }

    /** Backward liveness over vreg ids (blocks[i].id == i). Sets only
     *  grow, so in-place unions reach the least fixed point. */
    void
    computeLiveness()
    {
        const size_t n = mf_.blocks.size();
        std::vector<BitSet> use(n, BitSet(mf_.numVRegs));
        std::vector<BitSet> def(n, BitSet(mf_.numVRegs));
        for (auto &mb : mf_.blocks) {
            BitSet &u = use[mb.id];
            BitSet &d = def[mb.id];
            for (auto &inst : mb.insts) {
                forEachVReg(inst,
                            [&](MOpnd &o, bool is_def, bool is_use) {
                                if (is_use && !d.test(o.vreg))
                                    u.set(o.vreg);
                                if (is_def)
                                    d.set(o.vreg);
                            });
            }
        }
        liveIn_ = use;
        liveOut_.assign(n, BitSet(mf_.numVRegs));

        // Successors including SMIR handler edges (Eq. 2).
        std::vector<std::vector<int>> succs(n);
        for (auto &mb : mf_.blocks) {
            succs[mb.id] = mb.successors();
            if (mb.handlerBlock >= 0)
                succs[mb.id].push_back(mb.handlerBlock);
            for (int s : succs[mb.id])
                if (s < 0 || static_cast<size_t>(s) >= n)
                    panic("regalloc: " + mf_.name + ": " + mb.name +
                          " branches outside the function");
        }

        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t b = n; b-- > 0;) {
                bool grew = false;
                for (int s : succs[b])
                    grew |= liveOut_[b].unionWith(liveIn_[s]);
                if (grew) {
                    liveIn_[b].unionWithDifference(liveOut_[b], def[b]);
                    changed = true;
                }
            }
        }
    }

    void
    buildIntervals()
    {
        // Per-vreg raw segments (one per block where live/occurring),
        // merged afterwards.
        const uint32_t nv = mf_.numVRegs;
        std::vector<std::vector<std::pair<int, int>>> raw(nv);
        // First/last occurrence of each vreg within the current block;
        // seen[v] is the id of the block that last touched v.
        std::vector<std::pair<int, int>> occur(nv);
        std::vector<int> seen(nv, -1);
        std::vector<uint32_t> touched;

        for (auto &mb : mf_.blocks) {
            touched.clear();
            int pos = blockStart_[mb.id];
            for (auto &inst : mb.insts) {
                forEachVReg(inst, [&](MOpnd &o, bool, bool) {
                    if (seen[o.vreg] == mb.id) {
                        occur[o.vreg].second = pos;
                        return;
                    }
                    seen[o.vreg] = mb.id;
                    occur[o.vreg] = {pos, pos};
                    touched.push_back(o.vreg);
                });
                ++pos;
            }
            int bs = blockStart_[mb.id];
            int be = blockEnd_[mb.id] - 1;
            const BitSet &in = liveIn_[mb.id];
            const BitSet &out = liveOut_[mb.id];
            for (uint32_t v : touched) {
                int s = in.test(v) ? bs : occur[v].first;
                int e = out.test(v) ? be : occur[v].second;
                raw[v].emplace_back(s, e);
            }
            // Live-through without occurrence.
            in.forEach([&](size_t v) {
                if (seen[v] != mb.id && out.test(v))
                    raw[v].emplace_back(bs, be);
            });
        }

        // Intervals enter the (unstable) sort below in ascending vreg
        // order; keep it so, or equal-start ties may reorder and
        // change the allocation.
        for (uint32_t vreg = 0; vreg < nv; ++vreg) {
            auto &segs = raw[vreg];
            if (segs.empty())
                continue;
            std::sort(segs.begin(), segs.end());
            Interval iv;
            iv.vreg = vreg;
            iv.isSlice = mf_.vregIsSlice[vreg];
            for (auto &[s, e] : segs) {
                if (!iv.segs.empty() && s <= iv.segs.back().second + 1)
                    iv.segs.back().second =
                        std::max(iv.segs.back().second, e);
                else
                    iv.segs.emplace_back(s, e);
            }
            iv.start = iv.segs.front().first;
            intervals_.push_back(std::move(iv));
        }
        std::sort(intervals_.begin(), intervals_.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.start < b.start;
                  });
    }

    unsigned numRegs() const { return lastAlloc_ - kFirstAlloc + 1; }

    void
    scan()
    {
        for (Interval &iv : intervals_) {
            if (iv.isSlice)
                allocSlice(iv);
            else
                allocWhole(iv);
        }
    }

    /** A whole register is usable when neither its whole-reg busy set
     *  nor any of its slice busy sets conflict. */
    void
    allocWhole(Interval &iv)
    {
        for (unsigned r = 0; r < numRegs(); ++r) {
            if (wholeBusy_[r].conflicts(iv))
                continue;
            bool slice_conflict = false;
            for (unsigned s = 0; s < 4; ++s)
                slice_conflict |= sliceBusy_[r * 4 + s].conflicts(iv);
            if (slice_conflict)
                continue;
            wholeBusy_[r].add(iv);
            iv.assignedReg = static_cast<int>(kFirstAlloc + r);
            return;
        }
        spill(iv);
    }

    /** A slice is usable when its own busy set and the enclosing
     *  register's whole-reg busy set are both clear. Prefer packing
     *  into registers that already hold slices. */
    void
    allocSlice(Interval &iv)
    {
        int best_r = -1, best_s = -1;
        size_t best_used = 0;
        for (unsigned r = 0; r < numRegs(); ++r) {
            if (wholeBusy_[r].conflicts(iv))
                continue;
            for (unsigned s = 0; s < 4; ++s) {
                if (sliceBusy_[r * 4 + s].conflicts(iv))
                    continue;
                size_t used = sliceBusy_[r * 4].segs.size() +
                              sliceBusy_[r * 4 + 1].segs.size() +
                              sliceBusy_[r * 4 + 2].segs.size() +
                              sliceBusy_[r * 4 + 3].segs.size();
                if (best_r < 0 || used > best_used) {
                    best_r = static_cast<int>(r);
                    best_s = static_cast<int>(s);
                    best_used = used;
                }
                break;
            }
        }
        if (best_r >= 0) {
            sliceBusy_[best_r * 4 + best_s].add(iv);
            iv.assignedReg = static_cast<int>(kFirstAlloc + best_r);
            iv.assignedSlice = best_s;
            return;
        }
        spill(iv);
    }

    void
    spill(Interval &iv)
    {
        iv.spilled = true;
        iv.assignedReg = -1;
        iv.slot = mf_.spillSlots++;
        ++stats_.spilledVRegs;
    }

    // ---------------- Rewrite ----------------

    MOpnd
    physOpnd(const Interval &iv) const
    {
        if (iv.isSlice)
            return MOpnd::makeSlice(
                static_cast<unsigned>(iv.assignedReg),
                static_cast<unsigned>(iv.assignedSlice));
        return MOpnd::makeReg(static_cast<unsigned>(iv.assignedReg));
    }

    static MOpnd
    slotOffset(unsigned slot)
    {
        return MOpnd::makeImm(static_cast<int64_t>(slot) * 4);
    }

    void
    rewrite()
    {
        std::vector<Interval *> iv_of(mf_.numVRegs, nullptr);
        for (Interval &iv : intervals_)
            iv_of[iv.vreg] = &iv;

        for (auto &mb : mf_.blocks) {
            std::vector<MachInst> out;
            out.reserve(mb.insts.size());
            for (MachInst inst : mb.insts) {
                // Fold spills straight into physical-register moves
                // (argument setup / return values): using a scratch
                // there would clobber previously placed arguments.
                if (inst.op == MOp::MOV && inst.cond == Cond::AL &&
                    inst.dst.isReg() && inst.a.isVReg()) {
                    Interval *iv = iv_of[inst.a.vreg];
                    if (iv->spilled && !iv->isSlice) {
                        MachInst ld;
                        ld.op = MOp::LDR;
                        ld.dst = inst.dst;
                        ld.a = MOpnd::makeReg(kRegSP);
                        ld.b = slotOffset(iv->slot);
                        ld.tag = InstTag::SpillLoad;
                        out.push_back(ld);
                        continue;
                    }
                }
                if (inst.op == MOp::MOV && inst.cond == Cond::AL &&
                    inst.dst.isVReg() && inst.a.isReg()) {
                    Interval *iv = iv_of[inst.dst.vreg];
                    if (iv->spilled && !iv->isSlice) {
                        MachInst st;
                        st.op = MOp::STR;
                        st.dst = inst.a;
                        st.a = MOpnd::makeReg(kRegSP);
                        st.b = slotOffset(iv->slot);
                        st.tag = InstTag::SpillStore;
                        out.push_back(st);
                        continue;
                    }
                }

                std::vector<MachInst> loads, stores;
                auto fix = [&](MOpnd &o, bool is_def, bool is_use,
                               unsigned scratch) {
                    Interval *iv = iv_of[o.vreg];
                    if (!iv->spilled) {
                        o = physOpnd(*iv);
                        return;
                    }
                    MOpnd loc = iv->isSlice
                                    ? MOpnd::makeSlice(scratch, 0)
                                    : MOpnd::makeReg(scratch);
                    if (is_use) {
                        MachInst ld;
                        ld.op = iv->isSlice ? MOp::LDRB8 : MOp::LDR;
                        ld.dst = loc;
                        ld.a = MOpnd::makeReg(kRegSP);
                        ld.b = slotOffset(iv->slot);
                        ld.tag = InstTag::SpillLoad;
                        loads.push_back(ld);
                    }
                    if (is_def) {
                        MachInst st;
                        st.op = iv->isSlice ? MOp::STRB8 : MOp::STR;
                        st.dst = loc;
                        st.a = MOpnd::makeReg(kRegSP);
                        st.b = slotOffset(iv->slot);
                        st.tag = InstTag::SpillStore;
                        stores.push_back(st);
                    }
                    o = loc;
                };

                unsigned scratch = kScratch0;
                if (inst.a.isVReg())
                    fix(inst.a, false, true, scratch++);
                if (inst.b.isVReg())
                    fix(inst.b, false, true, scratch++);
                if (inst.dst.isVReg()) {
                    bool dst_is_use =
                        inst.op == MOp::STR || inst.op == MOp::STRH ||
                        inst.op == MOp::STRB || inst.op == MOp::STRB8;
                    bool dst_also_use =
                        ((inst.op == MOp::MOV ||
                          inst.op == MOp::MOV8) &&
                         inst.cond != Cond::AL) ||
                        inst.op == MOp::MOVT;
                    fix(inst.dst, !dst_is_use,
                        dst_is_use || dst_also_use, kScratch3);
                }

                for (auto &ld : loads)
                    out.push_back(ld);
                out.push_back(inst);
                for (auto &st : stores)
                    out.push_back(st);
            }
            mb.insts = std::move(out);
        }

        std::set<unsigned> used;
        for (Interval &iv : intervals_)
            if (!iv.spilled)
                used.insert(static_cast<unsigned>(iv.assignedReg));
        mf_.usedCalleeSaved.assign(used.begin(), used.end());
    }

    void
    collectStats()
    {
        for (auto &mb : mf_.blocks) {
            for (auto &inst : mb.insts) {
                ++stats_.staticInsts;
                if (inst.tag == InstTag::SpillLoad)
                    ++stats_.staticSpillLoads;
                else if (inst.tag == InstTag::SpillStore)
                    ++stats_.staticSpillStores;
                else if (inst.tag == InstTag::Copy)
                    ++stats_.staticCopies;
            }
        }
    }

    MachFunction &mf_;
    unsigned lastAlloc_;
    BackendStats stats_;
    std::vector<int> blockStart_, blockEnd_; ///< By block id.
    std::vector<BitSet> liveIn_, liveOut_;    ///< By block id.
    std::vector<Interval> intervals_;
    std::vector<SlotBusy> wholeBusy_;  ///< Per register.
    std::vector<SlotBusy> sliceBusy_;  ///< Per register x 4 slices.
};

} // namespace

BackendStats
allocateRegisters(MachFunction &mf)
{
    return Allocator(mf).run();
}

} // namespace bitspec
