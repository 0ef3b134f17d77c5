#include <gtest/gtest.h>

#include "support/bits.h"

namespace bitspec
{
namespace
{

TEST(RequiredBits, MatchesPaperDefinition)
{
    // floor(lg a + 1), pinned to 1 at zero.
    EXPECT_EQ(requiredBits(0), 1u);
    EXPECT_EQ(requiredBits(1), 1u);
    EXPECT_EQ(requiredBits(2), 2u);
    EXPECT_EQ(requiredBits(3), 2u);
    EXPECT_EQ(requiredBits(4), 3u);
    EXPECT_EQ(requiredBits(255), 8u);
    EXPECT_EQ(requiredBits(256), 9u);
    EXPECT_EQ(requiredBits(~0ULL), 64u);
}

TEST(RequiredBits, PowerOfTwoBoundaries)
{
    for (unsigned n = 1; n < 64; ++n) {
        uint64_t p = 1ULL << n;
        EXPECT_EQ(requiredBits(p - 1), n) << "below 2^" << n;
        EXPECT_EQ(requiredBits(p), n + 1) << "at 2^" << n;
    }
}

TEST(BitwidthClass, RoundsUpToStorageClasses)
{
    EXPECT_EQ(bitwidthClass(1), 8u);
    EXPECT_EQ(bitwidthClass(8), 8u);
    EXPECT_EQ(bitwidthClass(9), 16u);
    EXPECT_EQ(bitwidthClass(16), 16u);
    EXPECT_EQ(bitwidthClass(17), 32u);
    EXPECT_EQ(bitwidthClass(32), 32u);
    EXPECT_EQ(bitwidthClass(33), 64u);
    EXPECT_EQ(bitwidthClass(64), 64u);
}

TEST(Masks, LowMaskAndTrunc)
{
    EXPECT_EQ(lowMask(1), 1ULL);
    EXPECT_EQ(lowMask(8), 0xffULL);
    EXPECT_EQ(lowMask(32), 0xffffffffULL);
    EXPECT_EQ(lowMask(64), ~0ULL);
    EXPECT_EQ(truncTo(0x1234, 8), 0x34ULL);
    EXPECT_EQ(truncTo(0xffffffffffffffffULL, 32), 0xffffffffULL);
}

TEST(Extension, SextZext)
{
    EXPECT_EQ(sextFrom(0x80, 8), 0xffffffffffffff80ULL);
    EXPECT_EQ(sextFrom(0x7f, 8), 0x7fULL);
    EXPECT_EQ(zextFrom(0x80, 8), 0x80ULL);
    EXPECT_EQ(sextFrom(0xffff, 16), ~0ULL);
    EXPECT_EQ(sextFrom(0x1234, 64), 0x1234ULL);
}

} // namespace
} // namespace bitspec
