#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/bitset.h"

namespace bitspec
{
namespace
{

std::vector<size_t>
members(const BitSet &s)
{
    std::vector<size_t> out;
    s.forEach([&](size_t id) { out.push_back(id); });
    return out;
}

TEST(BitSet, SetAndTest)
{
    BitSet s(70);
    EXPECT_TRUE(members(s).empty());
    s.set(0);
    s.set(64);
    s.set(69);
    s.set(64); // Idempotent.
    for (size_t i = 0; i < 70; ++i)
        EXPECT_EQ(s.test(i), i == 0 || i == 64 || i == 69) << i;
}

TEST(BitSet, UnionReportsWhetherAnythingChanged)
{
    BitSet a(130), b(130);
    b.set(3);
    b.set(129);
    EXPECT_TRUE(a.unionWith(b));
    EXPECT_EQ(members(a), (std::vector<size_t>{3, 129}));
    // Nothing new: no change, even though the words were rewritten.
    EXPECT_FALSE(a.unionWith(b));
    a.set(70);
    EXPECT_FALSE(a.unionWith(b)) << "a superset is unchanged";
    // A single new bit in the last word is a change.
    b.set(128);
    EXPECT_TRUE(a.unionWith(b));
    EXPECT_EQ(members(a), (std::vector<size_t>{3, 70, 128, 129}));
    // The empty set changes nothing.
    EXPECT_FALSE(a.unionWith(BitSet(130)));
}

TEST(BitSet, UnionWithDifferenceSkipsMaskedBits)
{
    // in |= out & ~def, the liveness transfer.
    BitSet in(100), out(100), def(100);
    out.set(1);
    out.set(65);
    out.set(99);
    def.set(65);
    EXPECT_TRUE(in.unionWithDifference(out, def));
    EXPECT_EQ(members(in), (std::vector<size_t>{1, 99}));
    EXPECT_FALSE(in.unionWithDifference(out, def));
    // Only masked bits are new: no change.
    BitSet masked(100);
    masked.set(65);
    EXPECT_FALSE(in.unionWithDifference(masked, def));
    EXPECT_FALSE(in.test(65));
}

TEST(BitSet, ForEachIsAscendingAcrossWordBoundaries)
{
    for (size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
        BitSet s(size);
        std::vector<size_t> expect;
        for (size_t id : {0u, 1u, 62u, 63u, 64u, 65u, 127u, 128u, 191u})
            if (id < size)
                expect.push_back(id);
        expect.push_back(size - 1);
        // Set in descending order: iteration order must not follow
        // insertion order.
        for (auto it = expect.rbegin(); it != expect.rend(); ++it)
            s.set(*it);
        std::vector<size_t> got = members(s);
        std::sort(expect.begin(), expect.end());
        expect.erase(std::unique(expect.begin(), expect.end()),
                     expect.end());
        EXPECT_EQ(got, expect) << "size " << size;
    }
}

} // namespace
} // namespace bitspec
