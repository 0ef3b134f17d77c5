#include "uarch/cache.h"

#include <bit>

#include "support/error.h"

namespace bitspec
{

Cache::Cache(uint32_t size_bytes, uint32_t assoc, uint32_t line_bytes)
    : assoc_(assoc), lineBytes_(line_bytes)
{
    bsAssert(size_bytes % (assoc * line_bytes) == 0,
             "cache geometry must divide evenly");
    const uint32_t sets = size_bytes / (assoc * line_bytes);
    bsAssert(std::has_single_bit(line_bytes) &&
                 std::has_single_bit(sets),
             "cache line size and set count must be powers of two");
    lineShift_ = static_cast<uint32_t>(std::countr_zero(line_bytes));
    setMask_ = sets - 1;
    setShift_ = static_cast<uint32_t>(std::countr_zero(sets));
    lines_.resize(sets * assoc_);
}

int32_t
Cache::searchSlot(uint32_t line_addr) const
{
    const uint32_t base = setBase(line_addr);
    const uint32_t tag = tagOf(line_addr);
    const Line *ways = &lines_[base];
    for (uint32_t w = 0; w < assoc_; ++w)
        if (ways[w].valid && ways[w].tag == tag)
            return static_cast<int32_t>(base + w);
    return -1;
}

bool
Cache::accessSearch(uint32_t line_addr, bool is_write)
{
    Hint &hint = hintOf(line_addr);
    const int32_t slot = searchSlot(line_addr);
    if (slot >= 0) {
        touch(static_cast<uint32_t>(slot), is_write);
        hint = {line_addr, static_cast<uint32_t>(slot)};
        return true;
    }

    ++stats_.misses;
    const uint32_t base = setBase(line_addr);
    Line *ways = &lines_[base];
    // LRU victim.
    uint32_t victim = 0;
    for (uint32_t w = 1; w < assoc_; ++w) {
        if (!ways[w].valid) {
            victim = w;
            break;
        }
        if (ways[w].lastUse < ways[victim].lastUse)
            victim = w;
    }
    if (ways[victim].valid) {
        if (ways[victim].dirty)
            ++stats_.writebacks;
        // The evicted line may only be hinted at its own index.
        const uint32_t evicted =
            ways[victim].tag << setShift_ | (line_addr & setMask_);
        Hint &old = hintOf(evicted);
        if (old.line == evicted)
            old.line = Hint::kNoLine;
    }
    ways[victim] = Line{true, is_write, tagOf(line_addr), tick_};
    ++fillGen_; // Invalidates every recorded (address, slot) pin.
    hint = {line_addr, base + victim};
    return false;
}

bool
Cache::peek(uint32_t addr) const
{
    const uint32_t line_addr = lineOf(addr);
    // Hinted lines are resident by invariant.
    return hintOf(line_addr).line == line_addr ||
           searchSlot(line_addr) >= 0;
}

int32_t
Cache::residentSlotOf(uint32_t addr) const
{
    return searchSlot(lineOf(addr));
}

void
Cache::commitHits(uint32_t addr, uint64_t count)
{
    const uint32_t line_addr = lineOf(addr);
    // Replayed blocks commit the same line(s) again and again; skip
    // the way search like access() does. count back-to-back hits
    // leave lastUse at the final tick, exactly as the per-access loop
    // would.
    Hint &hint = hintOf(line_addr);
    if (hint.line != line_addr) {
        const int32_t slot = searchSlot(line_addr);
        if (slot < 0)
            panic("commitHits: line not resident");
        hint = {line_addr, static_cast<uint32_t>(slot)};
    }
    commitHitsAt(hint.slot, count);
}

MemoryHierarchy::MemoryHierarchy()
    : l1i_(8 * 1024, 4, 32), l1d_(8 * 1024, 4, 32),
      l2_(256 * 1024, 8, 32)
{}

uint32_t
MemoryHierarchy::missPath(uint32_t addr, bool is_write)
{
    if (l2_.access(addr, is_write))
        return kL2HitCycles;
    if (is_write)
        ++dram_.writes;
    else
        ++dram_.reads;
    return kL2HitCycles + kDramCycles;
}

uint32_t
MemoryHierarchy::fetch(uint32_t addr)
{
    if (l1i_.access(addr, false))
        return 0;
    return missPath(addr, false);
}

bool
MemoryHierarchy::fetchRangeResident(uint32_t first_addr,
                                    uint32_t last_addr) const
{
    const uint32_t line = l1i_.lineBytes();
    for (uint32_t la = first_addr - first_addr % line;
         la <= last_addr; la += line)
        if (!l1i_.peek(la))
            return false;
    return true;
}

void
MemoryHierarchy::fetchRangeCommit(uint32_t first_addr,
                                  uint32_t last_addr)
{
    fetchRangeCommit(first_addr, last_addr, 1);
}

void
MemoryHierarchy::fetchRangeCommit(uint32_t first_addr,
                                  uint32_t last_addr, uint64_t repeat)
{
    const uint32_t line = l1i_.lineBytes();
    for (uint32_t la = first_addr - first_addr % line;
         la <= last_addr; la += line) {
        uint32_t lo = la < first_addr ? first_addr : la;
        uint32_t hi_line = la + line - 1;
        uint32_t hi = hi_line > last_addr ? last_addr : hi_line;
        l1i_.commitHits(la, ((hi - lo) / 4 + 1) * repeat);
    }
}

bool
MemoryHierarchy::fetchResident(std::span<const FetchSeg> segs) const
{
    for (const FetchSeg &s : segs)
        if (!fetchRangeResident(s.first, s.last))
            return false;
    return true;
}

void
MemoryHierarchy::fetchCommit(std::span<const FetchSeg> segs,
                             uint64_t repeat)
{
    for (const FetchSeg &s : segs)
        fetchRangeCommit(s.first, s.last, repeat);
}

void
MemoryHierarchy::fetchPin(std::span<const FetchSeg> segs,
                          FetchPin &pin) const
{
    const uint32_t line = l1i_.lineBytes();
    pin.gen = l1i_.fillGen();
    pin.cnt = 0;
    uint32_t n = 0, total = 0;
    for (const FetchSeg &s : segs) {
        for (uint32_t la = s.first - s.first % line; la <= s.last;
             la += line) {
            int32_t slot = l1i_.residentSlotOf(la);
            bsAssert(slot >= 0, "fetchPin: line not resident");
            uint32_t lo = la < s.first ? s.first : la;
            uint32_t hi_line = la + line - 1;
            uint32_t hi = hi_line > s.last ? s.last : hi_line;
            uint32_t insts = (hi - lo) / 4 + 1;
            total += insts;
            // A jump that lands in the line it left continues the
            // same run of hits.
            if (n && pin.slot[n - 1] == static_cast<uint32_t>(slot)) {
                insts += pin.insts[n - 1];
                --n;
            }
            if (n == FetchPin::kMaxRuns || insts > 0xffff)
                return; // cnt stays 0: footprint too wide to pin.
            pin.slot[n] = static_cast<uint32_t>(slot);
            pin.insts[n] = static_cast<uint16_t>(insts);
            ++n;
        }
    }
    pin.cnt = n;
    pin.total = total;
}

} // namespace bitspec
