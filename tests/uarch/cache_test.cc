#include <gtest/gtest.h>

#include <vector>

#include "support/error.h"
#include "support/rng.h"
#include "uarch/cache.h"

namespace bitspec
{
namespace
{

TEST(Cache, HitAfterMiss)
{
    Cache c(8 * 1024, 4, 32);
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x101f, false)); // Same 32B line.
    EXPECT_FALSE(c.access(0x1020, false)); // Next line.
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Cache c(8 * 1024, 4, 32);
    // 4-way, 64 sets: addresses 2 KiB apart map to the same set.
    for (int w = 0; w < 4; ++w)
        EXPECT_FALSE(c.access(0x1000 + w * 2048, false));
    for (int w = 0; w < 4; ++w)
        EXPECT_TRUE(c.access(0x1000 + w * 2048, false));
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(8 * 1024, 4, 32);
    for (int w = 0; w < 4; ++w)
        c.access(0x1000 + w * 2048, false);
    // Touch way 0 again, then insert a 5th conflicting line.
    c.access(0x1000, false);
    c.access(0x1000 + 4 * 2048, false);
    // Way 0 (recently used) must survive; way 1 was evicted.
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_FALSE(c.access(0x1000 + 1 * 2048, false));
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache c(8 * 1024, 4, 32);
    c.access(0x1000, true); // Dirty.
    for (int w = 1; w <= 4; ++w)
        c.access(0x1000 + w * 2048, false); // Evicts the dirty line.
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Hierarchy, LatenciesEscalate)
{
    MemoryHierarchy m;
    // Cold: L1 miss -> L2 miss -> DRAM.
    EXPECT_EQ(m.data(0x2000, false),
              MemoryHierarchy::kL2HitCycles +
                  MemoryHierarchy::kDramCycles);
    // Warm: L1 hit.
    EXPECT_EQ(m.data(0x2000, false), 0u);
    EXPECT_EQ(m.dram().reads, 1u);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    MemoryHierarchy m;
    m.data(0x3000, false);
    // Blow the line out of 8 KiB L1 (touch 8 conflicting lines)...
    for (int w = 1; w <= 8; ++w)
        m.data(0x3000 + w * 2048, false);
    // ...but 256 KiB L2 still holds it: only the L2 latency is paid.
    EXPECT_EQ(m.data(0x3000, false), MemoryHierarchy::kL2HitCycles);
}

TEST(Hierarchy, SeparateInstructionAndDataPaths)
{
    MemoryHierarchy m;
    m.fetch(0x5000);
    EXPECT_EQ(m.l1i().misses, 1u);
    EXPECT_EQ(m.l1d().accesses, 0u);
    // Data access to the same address misses L1D (separate cache)
    // but hits in the shared L2.
    EXPECT_EQ(m.data(0x5000, false), MemoryHierarchy::kL2HitCycles);
}

TEST(Cache, PeekIsAPureProbe)
{
    Cache c(8 * 1024, 4, 32);
    EXPECT_FALSE(c.peek(0x1000));
    EXPECT_EQ(c.stats().accesses, 0u); // No stats from probing.
    c.access(0x1000, false);
    EXPECT_TRUE(c.peek(0x1000));
    EXPECT_TRUE(c.peek(0x101f)); // Same line.
    EXPECT_FALSE(c.peek(0x1020));
    EXPECT_EQ(c.stats().accesses, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, CommitHitsMatchesAccessLoop)
{
    // commitHits(addr, n) must be statistically and LRU-wise
    // indistinguishable from n access() hits on the same line.
    Cache bulk(8 * 1024, 4, 32);
    Cache loop(8 * 1024, 4, 32);
    bulk.access(0x1000, false);
    loop.access(0x1000, false);

    bulk.commitHits(0x1000, 7);
    for (int i = 0; i < 7; ++i)
        EXPECT_TRUE(loop.access(0x1000, false));

    EXPECT_EQ(bulk.stats().accesses, loop.stats().accesses);
    EXPECT_EQ(bulk.stats().misses, loop.stats().misses);
    EXPECT_EQ(bulk.stats().writebacks, loop.stats().writebacks);

    // The commit must also freshen the line's LRU stamp: make an
    // older conflicting line the victim. 0x1800 enters after 0x1000,
    // but the bulk hits leave 0x1000 more recently used, so filling
    // the set evicts 0x1800 — unless commitHits forgot the clock.
    bulk.access(0x1800, false);
    loop.access(0x1800, false);
    bulk.commitHits(0x1000, 3);
    for (int i = 0; i < 3; ++i)
        loop.access(0x1000, false);
    for (uint32_t line : {0x2000u, 0x2800u, 0x3000u}) {
        bulk.access(line, false);
        loop.access(line, false);
    }
    EXPECT_TRUE(bulk.peek(0x1000));
    EXPECT_FALSE(bulk.peek(0x1800));
    EXPECT_EQ(bulk.peek(0x1000), loop.peek(0x1000));
    EXPECT_EQ(bulk.peek(0x1800), loop.peek(0x1800));
}

TEST(Cache, CommitHitsPanicsWhenNotResident)
{
    Cache c(8 * 1024, 4, 32);
    EXPECT_THROW(c.commitHits(0x1000, 1), PanicError);
}

TEST(Hierarchy, FetchRangeCommitMatchesFetchLoop)
{
    // A 9-instruction straight-line run crossing a 32 B line boundary:
    // the bulk commit must leave identical stats to per-PC fetches.
    const uint32_t first = 0x400010, last = first + 8 * 4;
    MemoryHierarchy bulk, loop;
    EXPECT_FALSE(bulk.fetchRangeResident(first, last));
    for (uint32_t pc = first; pc <= last; pc += 4) {
        bulk.fetch(pc);
        loop.fetch(pc);
    }
    ASSERT_TRUE(bulk.fetchRangeResident(first, last));

    bulk.fetchRangeCommit(first, last);
    for (uint32_t pc = first; pc <= last; pc += 4)
        loop.fetch(pc);

    EXPECT_EQ(bulk.l1i().accesses, loop.l1i().accesses);
    EXPECT_EQ(bulk.l1i().misses, loop.l1i().misses);
    EXPECT_EQ(bulk.l2().accesses, loop.l2().accesses);
    EXPECT_EQ(bulk.dram().reads, loop.dram().reads);
}

TEST(Hierarchy, FetchRangeResidentNeedsEveryLine)
{
    MemoryHierarchy m;
    m.fetch(0x400000); // First line only.
    EXPECT_TRUE(m.fetchRangeResident(0x400000, 0x40001c));
    // Range extends into the next, unfetched line.
    EXPECT_FALSE(m.fetchRangeResident(0x400000, 0x400020));
}

/** Reference LRU cache: a full way search on every call and no
 *  remembered lines. Its victim choice is Cache's: the first invalid
 *  way after way 0, else the least recently used way (an unfilled way
 *  0 has lastUse 0). */
class NaiveLru
{
  public:
    NaiveLru(uint32_t size_bytes, uint32_t assoc, uint32_t line_bytes)
        : assoc_(assoc), lineBytes_(line_bytes),
          sets_(size_bytes / (assoc * line_bytes)),
          lines_(sets_ * assoc)
    {}

    bool
    access(uint32_t addr, bool is_write)
    {
        ++stats.accesses;
        ++tick_;
        touched(addr / lineBytes_);
        int32_t slot = residentSlotOf(addr);
        if (slot >= 0) {
            lines_[slot].lastUse = tick_;
            lines_[slot].dirty |= is_write;
            return true;
        }
        ++stats.misses;
        const uint32_t base = (addr / lineBytes_ % sets_) * assoc_;
        uint32_t victim = assoc_;
        for (uint32_t w = 1; w < assoc_ && victim == assoc_; ++w)
            if (!lines_[base + w].valid)
                victim = w;
        if (victim == assoc_) {
            victim = 0;
            for (uint32_t w = 1; w < assoc_; ++w)
                if (lines_[base + w].lastUse < lines_[base + victim].lastUse)
                    victim = w;
        }
        Line &l = lines_[base + victim];
        if (l.valid) {
            stats.writebacks += l.dirty;
            // recent_[0] is the line being filled: recent_[1..2] are
            // the two lines Cache remembered before this access.
            evictedRecent[0] += l.line == recent_[1];
            evictedRecent[1] += l.line == recent_[2];
        }
        l = Line{true, is_write, addr / lineBytes_, tick_};
        return false;
    }

    bool peek(uint32_t addr) const { return residentSlotOf(addr) >= 0; }

    int32_t
    residentSlotOf(uint32_t addr) const
    {
        const uint32_t line = addr / lineBytes_;
        const uint32_t base = line % sets_ * assoc_;
        for (uint32_t w = 0; w < assoc_; ++w)
            if (lines_[base + w].valid && lines_[base + w].line == line)
                return static_cast<int32_t>(base + w);
        return -1;
    }

    /** False (and no effect) when the line is not resident. */
    bool
    commitHits(uint32_t addr, uint64_t count)
    {
        const int32_t slot = residentSlotOf(addr);
        if (slot < 0)
            return false;
        touched(addr / lineBytes_);
        commitHitsAt(static_cast<uint32_t>(slot), count);
        return true;
    }

    void
    commitHitsAt(uint32_t slot, uint64_t count)
    {
        stats.accesses += count;
        tick_ += count;
        lines_[slot].lastUse = tick_;
    }

    CacheStats stats;
    /** Fills that evicted the most recently / second most recently
     *  touched distinct line before the filled one (bookkeeping only:
     *  no lookup consults it). */
    uint64_t evictedRecent[2] = {};

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint32_t line = 0;
        uint64_t lastUse = 0;
    };

    /** Distinct lines touched by access() and commitHits(), most
     *  recent first. */
    void
    touched(uint32_t line)
    {
        if (line == recent_[0])
            return;
        if (line != recent_[1])
            recent_[2] = recent_[1];
        recent_[1] = recent_[0];
        recent_[0] = line;
    }

    uint32_t assoc_, lineBytes_, sets_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
    uint32_t recent_[3] = {~0u, ~0u, ~0u};
};

TEST(Cache, MatchesNaiveLruOnRandomStreams)
{
    // Streams concentrated on 3 sets of 6 lines each. Half the draws
    // revisit one of the last 3 lines, so the remembered-line hit
    // paths run. Under LRU a fill evicts a remembered line only when
    // the set holds nothing older: in a direct-mapped cache, or after
    // commitHitsAt() (the pinned fetch commit, which leaves the
    // remembered lines alone) freshened the set's other ways.
    struct Geometry
    {
        uint32_t size, assoc, line;
    };
    uint64_t evicted_first = 0, evicted_second = 0;
    for (const Geometry g : {Geometry{8 * 1024, 4, 32},
                             Geometry{1024, 2, 32}, Geometry{512, 1, 32}}) {
        const uint32_t way_bytes = g.size / g.assoc; // Same-set stride.
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            Cache cache(g.size, g.assoc, g.line);
            NaiveLru ref(g.size, g.assoc, g.line);
            Rng rng(seed);
            std::vector<uint32_t> recent;
            for (int step = 0; step < 20000; ++step) {
                uint32_t addr;
                if (recent.size() >= 3 && rng.nextBelow(2)) {
                    addr = recent[recent.size() - 1 - rng.nextBelow(3)];
                } else {
                    const auto set = static_cast<uint32_t>(rng.nextBelow(3));
                    const auto tag = static_cast<uint32_t>(rng.nextBelow(6));
                    addr = 0x4000 + set * g.line + tag * way_bytes +
                           static_cast<uint32_t>(rng.nextBelow(g.line));
                }
                recent.push_back(addr);
                const uint64_t op = rng.nextBelow(10);
                SCOPED_TRACE(testing::Message()
                             << g.assoc << "-way, seed " << seed << ", step "
                             << step << ", op " << op << ", addr 0x"
                             << std::hex << addr);
                if (op < 5) {
                    const bool write = rng.nextBelow(2);
                    ASSERT_EQ(cache.access(addr, write),
                              ref.access(addr, write));
                } else if (op < 6) {
                    ASSERT_EQ(cache.peek(addr), ref.peek(addr));
                } else if (op < 8) {
                    const uint64_t count = 1 + rng.nextBelow(5);
                    if (ref.commitHits(addr, count))
                        cache.commitHits(addr, count);
                    else
                        ASSERT_THROW(cache.commitHits(addr, count),
                                     PanicError);
                } else {
                    const int32_t slot = cache.residentSlotOf(addr);
                    ASSERT_EQ(slot, ref.residentSlotOf(addr));
                    if (slot >= 0 && op == 9) {
                        cache.commitHitsAt(static_cast<uint32_t>(slot), 2);
                        ref.commitHitsAt(static_cast<uint32_t>(slot), 2);
                    }
                }
            }
            EXPECT_EQ(cache.stats(), ref.stats)
                << g.assoc << "-way, seed " << seed;
            evicted_first += ref.evictedRecent[0];
            evicted_second += ref.evictedRecent[1];
        }
    }
    // The streams did evict both remembered lines.
    EXPECT_GT(evicted_first, 0u);
    EXPECT_GT(evicted_second, 0u);
}

} // namespace
} // namespace bitspec
