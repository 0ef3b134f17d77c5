#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "support/mapped_bytes.h"

namespace bitspec
{
namespace
{

bool
allZero(std::span<const uint8_t> b)
{
    return std::all_of(b.begin(), b.end(),
                       [](uint8_t x) { return x == 0; });
}

TEST(MappedBytes, ZeroDropsEveryWriteAndKeepsTheMapping)
{
    // Not a whole number of pages: the tail page is zeroed too.
    MappedBytes mem(3 * 4096 + 5);
    const std::span<uint8_t> b = mem.bytes();
    ASSERT_EQ(b.size(), 3u * 4096 + 5);
    EXPECT_TRUE(allZero(b));

    b.front() = 1;
    b[4096] = 2;
    b.back() = 3;
    mem.zero();
    EXPECT_EQ(mem.bytes().data(), b.data());
    EXPECT_EQ(mem.bytes().size(), b.size());
    EXPECT_TRUE(allZero(b));

    b.back() = 4; // Still writable after the pages were dropped.
    EXPECT_EQ(b.back(), 4);
}

TEST(MappedBytes, EmptyMapsNothing)
{
    MappedBytes mem(0);
    EXPECT_TRUE(mem.bytes().empty());
    mem.zero();
}

} // namespace
} // namespace bitspec
