#include "backend/regalloc.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/error.h"

namespace bitspec
{

namespace
{

/** Call fn(operand, is_def, is_use) for each vreg operand of @p inst:
 *  a store's dst is the data it reads, and a conditional move or a
 *  MOVT also reads the register it writes. */
template <typename Inst, typename Fn>
void
forEachVReg(Inst &inst, Fn fn)
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

/** (key, value) pairs as compressed rows: @p values holds each key's
 *  values in pair order, key k's at [start[k], start[k + 1]). */
template <typename V>
void
bucketByKey(const std::vector<std::pair<uint32_t, V>> &pairs, size_t keys,
            std::vector<uint32_t> &start, std::vector<V> &values)
{
    start.assign(keys + 1, 0);
    for (const auto &kv : pairs)
        ++start[kv.first + 1];
    for (size_t k = 0; k < keys; ++k)
        start[k + 1] += start[k];
    values.resize(pairs.size());
    // Fill through start[k] (which ends at key k's end), then shift
    // the row starts back into place.
    for (const auto &[k, v] : pairs)
        values[start[k]++] = v;
    for (size_t k = keys; k > 0; --k)
        start[k] = start[k - 1];
    start[0] = 0;
}

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

    /** Merge @p iv's segments in from the back, in place: the list
     *  grows by their count and only the busy segments that start
     *  after one of them move. */
    void
    add(const Interval &iv)
    {
        auto busy = segs.size();
        segs.resize(busy + iv.segs.size());
        auto out = segs.size();
        auto in = iv.segs.size();
        while (in > 0) {
            if (busy > 0 && iv.segs[in - 1] < segs[busy - 1])
                segs[--out] = segs[--busy];
            else
                segs[--out] = iv.segs[--in];
        }
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
        live_ = computeMirLiveness(mf_);
        numberInstructions();
        buildIntervals();
        scan();
        rewrite();
        collectStats();
        return stats_;
    }

  private:
    void
    numberInstructions()
    {
        const size_t n = mf_.blocks.size();
        blockStart_.resize(n);
        blockEnd_.resize(n);
        int pos = 0;
        for (size_t b = 0; b < n; ++b) {
            blockStart_[b] = pos;
            pos += static_cast<int>(mf_.blocks[b].insts.size());
            blockEnd_[b] = pos; // One past the last.
        }
    }

    void
    buildIntervals()
    {
        // Raw segments (one per vreg and block where it is live or
        // occurs), bucketed by vreg and merged afterwards.
        const uint32_t nv = mf_.numVRegs;
        using Seg = std::pair<int, int>;
        std::vector<std::pair<uint32_t, Seg>> raw;
        // First/last occurrence of each vreg within the current block;
        // seen[v] is the id of the block that last touched v.
        std::vector<std::pair<int, int>> occur(nv);
        std::vector<int> seen(nv, -1);
        // live_in[v] / live_out[v]: the last block v was live into /
        // out of, so membership in the current block is one compare.
        std::vector<int> live_in(nv, -1), live_out(nv, -1);
        std::vector<uint32_t> touched;

        for (auto &mb : mf_.blocks) {
            touched.clear();
            for (uint32_t v : live_.liveIn(mb.id))
                live_in[v] = mb.id;
            for (uint32_t v : live_.liveOut(mb.id))
                live_out[v] = mb.id;
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
            for (uint32_t v : touched) {
                int s = live_in[v] == mb.id ? bs : occur[v].first;
                int e = live_out[v] == mb.id ? be : occur[v].second;
                raw.push_back({v, {s, e}});
            }
            // Live-through without occurrence.
            for (uint32_t v : live_.liveIn(mb.id))
                if (seen[v] != mb.id && live_out[v] == mb.id)
                    raw.push_back({v, {bs, be}});
        }
        std::vector<uint32_t> seg_start;
        std::vector<Seg> segs;
        bucketByKey(raw, nv, seg_start, segs);

        // Intervals enter the (unstable) sort below in ascending vreg
        // order; keep it so, or equal-start ties may reorder and
        // change the allocation.
        for (uint32_t vreg = 0; vreg < nv; ++vreg) {
            auto first = segs.begin() + seg_start[vreg];
            auto last = segs.begin() + seg_start[vreg + 1];
            if (first == last)
                continue;
            std::sort(first, last);
            Interval iv;
            iv.vreg = vreg;
            iv.isSlice = mf_.vregIsSlice[vreg];
            for (auto &[s, e] : std::span(first, last)) {
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

        std::vector<MachInst> out, loads, stores;
        for (auto &mb : mf_.blocks) {
            // Without a spilled vreg the block keeps its instructions:
            // each vreg operand just becomes its register or slice.
            bool spills = false;
            for (MachInst &inst : mb.insts)
                forEachVReg(inst, [&](MOpnd &o, bool, bool) {
                    spills |= iv_of[o.vreg]->spilled;
                });
            if (!spills) {
                for (MachInst &inst : mb.insts)
                    forEachVReg(inst, [&](MOpnd &o, bool, bool) {
                        o = physOpnd(*iv_of[o.vreg]);
                    });
                continue;
            }
            out.clear();
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

                loads.clear();
                stores.clear();
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
            mb.insts.swap(out);
        }

        bool used[kRegPC + 1] = {};
        for (Interval &iv : intervals_)
            if (!iv.spilled)
                used[iv.assignedReg] = true;
        mf_.usedCalleeSaved.clear();
        for (unsigned r = 0; r <= kRegPC; ++r)
            if (used[r])
                mf_.usedCalleeSaved.push_back(r);
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
    MirLiveness live_;
    std::vector<int> blockStart_, blockEnd_; ///< By block id.
    std::vector<Interval> intervals_;
    std::vector<SlotBusy> wholeBusy_;  ///< Per register.
    std::vector<SlotBusy> sliceBusy_;  ///< Per register x 4 slices.
};

} // namespace

MirLiveness
computeMirLiveness(const MachFunction &mf)
{
    const size_t n = mf.blocks.size();
    const uint32_t nv = mf.numVRegs;
    using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

    // Predecessors, handler edges included (Eq. 2): a block's
    // successors are its trailing branches' targets and its region's
    // handler.
    Pairs edges; // (successor, predecessor)
    for (size_t b = 0; b < n; ++b) {
        const MachBlock &mb = mf.blocks[b];
        if (mb.id != static_cast<int>(b))
            panic("regalloc: " + mf.name + ": block ids must be "
                  "block indices");
        auto edge = [&](int s) {
            if (s < 0 || static_cast<size_t>(s) >= n)
                panic("regalloc: " + mf.name + ": " + mb.name +
                      " branches outside the function");
            edges.emplace_back(static_cast<uint32_t>(s),
                               static_cast<uint32_t>(b));
        };
        for (auto it = mb.insts.rbegin();
             it != mb.insts.rend() && it->op == MOp::B; ++it)
            edge(it->target);
        if (mb.handlerBlock >= 0)
            edge(mb.handlerBlock);
    }
    std::vector<uint32_t> pred_start, preds;
    bucketByKey(edges, n, pred_start, preds);

    // Upward-exposed uses and definitions as (vreg, block) pairs, one
    // per vreg and block; *_mark[v] is the last block that recorded v.
    Pairs use_pairs, def_pairs;
    {
        std::vector<uint32_t> use_mark(nv, UINT32_MAX);
        std::vector<uint32_t> def_mark(nv, UINT32_MAX);
        for (uint32_t b = 0; b < n; ++b) {
            for (const MachInst &inst : mf.blocks[b].insts) {
                forEachVReg(inst, [&](const MOpnd &o, bool is_def,
                                      bool is_use) {
                    const uint32_t v = o.vreg;
                    if (is_use && def_mark[v] != b && use_mark[v] != b) {
                        use_mark[v] = b;
                        use_pairs.emplace_back(v, b);
                    }
                    if (is_def && def_mark[v] != b) {
                        def_mark[v] = b;
                        def_pairs.emplace_back(v, b);
                    }
                });
            }
        }
    }
    std::vector<uint32_t> use_start, use_blocks, def_start, def_blocks;
    bucketByKey(use_pairs, nv, use_start, use_blocks);
    bucketByKey(def_pairs, nv, def_start, def_blocks);

    // Per vreg, ascending: walk back from its use blocks. Stamps are
    // v + 1, so no clearing between vregs.
    std::vector<uint32_t> def_stamp(n, 0), in_stamp(n, 0), out_stamp(n, 0);
    Pairs in_pairs, out_pairs; // (block, vreg)
    std::vector<uint32_t> work;
    for (uint32_t v = 0; v < nv; ++v) {
        const uint32_t stamp = v + 1;
        for (uint32_t k = def_start[v]; k < def_start[v + 1]; ++k)
            def_stamp[def_blocks[k]] = stamp;
        for (uint32_t k = use_start[v]; k < use_start[v + 1]; ++k) {
            const uint32_t b = use_blocks[k];
            in_stamp[b] = stamp;
            in_pairs.emplace_back(b, v);
            work.push_back(b);
        }
        while (!work.empty()) {
            const uint32_t b = work.back();
            work.pop_back();
            for (uint32_t k = pred_start[b]; k < pred_start[b + 1]; ++k) {
                const uint32_t p = preds[k];
                if (out_stamp[p] == stamp)
                    continue;
                out_stamp[p] = stamp;
                out_pairs.emplace_back(p, v);
                if (def_stamp[p] != stamp && in_stamp[p] != stamp) {
                    in_stamp[p] = stamp;
                    in_pairs.emplace_back(p, v);
                    work.push_back(p);
                }
            }
        }
    }

    MirLiveness live;
    bucketByKey(in_pairs, n, live.inStart, live.in);
    bucketByKey(out_pairs, n, live.outStart, live.out);
    return live;
}

BackendStats
allocateRegisters(MachFunction &mf)
{
    return Allocator(mf).run();
}

} // namespace bitspec
