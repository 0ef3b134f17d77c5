/**
 * @file
 * Set-associative cache hierarchy: 8 KiB 4-way L1 I/D caches backed
 * by a 256 KiB L2 and a flat-latency DRAM model (the paper's memory
 * system, §4.1: gem5-style caches + DRAMSim substitute).
 *
 * The model is performance/energy-only: data lives in the simulator's
 * flat memory; caches track tags for hit/miss behaviour, write-back
 * dirty state and access counts.
 */

#ifndef BITSPEC_UARCH_CACHE_H_
#define BITSPEC_UARCH_CACHE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bitspec
{

/** Access statistics of one cache level. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    bool operator==(const CacheStats &) const = default;
};

/** One set-associative write-back cache with LRU replacement. */
class Cache
{
  public:
    /** Line size and set count must be powers of two: the index math
     *  is shifts and masks. */
    Cache(uint32_t size_bytes, uint32_t assoc, uint32_t line_bytes);

    /**
     * Access @p addr; returns true on hit. Misses fill the line
     * (write-allocate); evicted dirty lines count as writebacks.
     * @p is_write marks the line dirty. A hit on a remembered line is
     * inline; the way search and the fill are not.
     */
    bool
    access(uint32_t addr, bool is_write)
    {
        ++stats_.accesses;
        ++tick_;
        const uint32_t line_addr = lineOf(addr);
        if (line_addr == recent_[0].line) {
            touch(recent_[0].slot, is_write);
            return true;
        }
        if (line_addr == recent_[1].line) {
            std::swap(recent_[0], recent_[1]);
            touch(recent_[0].slot, is_write);
            return true;
        }
        return accessSearch(line_addr, is_write);
    }

    /** True when the line holding @p addr is resident. Pure probe: no
     *  stats, no LRU update (the fast engine's replay guard). */
    bool peek(uint32_t addr) const;

    /**
     * Record @p count back-to-back read hits on the resident line
     * holding @p addr: bumps accesses and the LRU clock exactly as
     * @p count access() hits would, without the per-access way
     * search. Panics when the line is not resident — callers must
     * peek() first.
     */
    void commitHits(uint32_t addr, uint64_t count);

    /** Monotonic count of line fills. An unchanged generation proves
     *  no line moved or was evicted, so any previously recorded
     *  (address, slot) pair is still resident at the same slot. */
    uint64_t fillGen() const { return fillGen_; }

    /** Slot of the resident line holding @p addr, or -1. Pure probe;
     *  the slot stays valid while fillGen() is unchanged. */
    int32_t residentSlotOf(uint32_t addr) const;

    /** commitHits without the way search: record @p count hits
     *  directly on slot @p slot. Callers prove residency via an
     *  unchanged fillGen() since residentSlotOf returned the slot. */
    void
    commitHitsAt(uint32_t slot, uint64_t count)
    {
        stats_.accesses += count;
        tick_ += count;
        lines_[slot].lastUse = tick_;
    }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }
    uint32_t lineBytes() const { return lineBytes_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint32_t tag = 0;
        uint64_t lastUse = 0;
    };

    /** Line address of @p addr. */
    uint32_t lineOf(uint32_t addr) const { return addr >> lineShift_; }
    /** First slot of @p line_addr's set. */
    uint32_t
    setBase(uint32_t line_addr) const
    {
        return (line_addr & setMask_) * assoc_;
    }
    uint32_t
    tagOf(uint32_t line_addr) const
    {
        return line_addr >> setShift_;
    }

    /** An access hit on resident slot @p slot. */
    void
    touch(uint32_t slot, bool is_write)
    {
        Line &l = lines_[slot];
        l.lastUse = tick_;
        l.dirty |= is_write;
    }

    /** access() past the remembered lines: way search, then fill. */
    bool accessSearch(uint32_t line_addr, bool is_write);

    /** Make (@p line_addr, @p slot) the most recent remembered line;
     *  the older of the two is dropped. */
    void
    remember(uint32_t line_addr, uint32_t slot)
    {
        recent_[1] = recent_[0];
        recent_[0] = {line_addr, slot};
    }

    uint32_t assoc_;
    uint32_t lineBytes_;
    uint32_t lineShift_; ///< log2(lineBytes_).
    uint32_t setMask_;   ///< Sets - 1.
    uint32_t setShift_;  ///< log2(sets).
    std::vector<Line> lines_; ///< Sets * assoc_, row-major by set.
    uint64_t tick_ = 0;
    uint64_t fillGen_ = 0;
    CacheStats stats_;
    /** The last two distinct lines touched by access() or
     *  commitHits(), most recent first: accesses that alternate
     *  between two lines (a spill slot and an image row, sequential
     *  fetch, streaming data) skip the way search. lines_[slot] holds
     *  a remembered line whenever line != kNoLine. A fill remembers
     *  the line it installs, which drops the older entry, and forgets
     *  the other one when the fill evicted it, so neither can go
     *  stale. */
    struct Recent
    {
        static constexpr uint32_t kNoLine = 0xffffffffu; ///< Matches no line.
        uint32_t line = kNoLine;
        uint32_t slot = 0;
    };
    Recent recent_[2];
};

/** DRAM access counters (latency/energy applied by the core model). */
struct DramStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;

    bool operator==(const DramStats &) const = default;
};

/** The full hierarchy: L1I + L1D -> unified L2 -> DRAM. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy();

    /** Instruction fetch at @p addr; returns the added stall cycles. */
    uint32_t fetch(uint32_t addr);

    /** Data access; returns the added stall cycles beyond the L1 hit
     *  pipeline latency. */
    uint32_t
    data(uint32_t addr, bool is_write)
    {
        if (l1d_.access(addr, is_write))
            return 0;
        return missPath(addr, is_write);
    }

    /** True when every I-line covering [@p first_addr, @p last_addr]
     *  is L1I-resident (no state change; fast-engine replay guard). */
    bool fetchRangeResident(uint32_t first_addr,
                            uint32_t last_addr) const;

    /**
     * Commit the fetch sequence of the kInstBytes-strided PCs in
     * [@p first_addr, @p last_addr]: per covered line, one bulk L1I
     * hit record for its instructions, in line order — statistically
     * identical to the per-instruction fetch() calls it replaces.
     * Every covered line must be resident (fetchRangeResident).
     */
    void fetchRangeCommit(uint32_t first_addr, uint32_t last_addr);

    /** fetchRangeCommit, @p repeat times at once: the fast engine's
     *  internally iterated loop replays touch no other I-line between
     *  iterations, so one scaled bulk hit record per line is
     *  indistinguishable from the per-iteration commits. */
    void fetchRangeCommit(uint32_t first_addr, uint32_t last_addr,
                          uint64_t repeat);

    /** One straight fetch segment: the PCs [first, last]. A replayed
     *  trace fetches its segments in order, jumping between them. */
    struct FetchSeg
    {
        uint32_t first = 0;
        uint32_t last = 0;
    };

    /** fetchRangeResident over every segment. */
    bool fetchResident(std::span<const FetchSeg> segs) const;

    /** fetchRangeCommit of each segment in order, @p repeat
     *  traversals at once. Scaling by @p repeat is exact for the same
     *  reason as for one range: each line's last touch keeps its place
     *  in the traversal, so relative LRU order within a set is that of
     *  the per-traversal commits. */
    void fetchCommit(std::span<const FetchSeg> segs, uint64_t repeat);

    /**
     * Pinned I-fetch footprint of one replayed trace: the ordered
     * (slot, fetch count) runs of one traversal, segment by segment
     * in execution order. A line may appear more than once when the
     * trace jumps back into it. Valid while the L1I fill generation
     * is unchanged — with it, the replay residency guard is one
     * compare and the fetch commit a direct per-slot stat bump, no
     * way searches.
     */
    struct FetchPin
    {
        static constexpr uint32_t kMaxRuns = 32;
        uint64_t gen = ~0ull; ///< l1iFillGen() when recorded.
        uint32_t cnt = 0;     ///< Pinned runs; 0 = not pinned.
        uint32_t slot[kMaxRuns];
        uint16_t insts[kMaxRuns];
    };

    uint64_t l1iFillGen() const { return l1i_.fillGen(); }

    /** Record the footprint of @p segs into @p pin. Every line must be
     *  resident (fetchResident). A footprint of more than kMaxRuns
     *  runs leaves cnt == 0: unpinnable, callers keep using
     *  fetchCommit. */
    void fetchPin(std::span<const FetchSeg> segs, FetchPin &pin) const;

    /** Commit @p repeat traversals of a pinned footprint; the pin
     *  must be valid (pin.gen == l1iFillGen()). Per-slot bulk hits in
     *  line order: same final tick, stats and relative LRU order as
     *  the per-traversal commits (nothing else touches L1I in between
     *  — the fetchRangeCommit argument). */
    void
    fetchCommitPinned(const FetchPin &pin, uint64_t repeat)
    {
        for (uint32_t j = 0; j < pin.cnt; ++j)
            l1i_.commitHitsAt(pin.slot[j], pin.insts[j] * repeat);
    }

    const CacheStats &l1i() const { return l1i_.stats(); }
    const CacheStats &l1d() const { return l1d_.stats(); }
    const CacheStats &l2() const { return l2_.stats(); }
    const DramStats &dram() const { return dram_; }

    /** @name Latency parameters (cycles). */
    /// @{
    static constexpr uint32_t kL2HitCycles = 8;
    static constexpr uint32_t kDramCycles = 60;
    /// @}

  private:
    uint32_t missPath(uint32_t addr, bool is_write);

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    DramStats dram_;
};

} // namespace bitspec

#endif // BITSPEC_UARCH_CACHE_H_
