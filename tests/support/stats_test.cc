#include <gtest/gtest.h>

#include "support/stats.h"

namespace bitspec
{
namespace
{

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, PercentileEndpoints)
{
    std::vector<double> xs{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Histogram, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Histogram, SingleSample)
{
    Histogram h;
    h.add(7.5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 7.5);
    EXPECT_DOUBLE_EQ(h.min(), 7.5);
    EXPECT_DOUBLE_EQ(h.max(), 7.5);
    EXPECT_DOUBLE_EQ(h.mean(), 7.5);
    EXPECT_DOUBLE_EQ(h.p50(), 7.5);
    EXPECT_DOUBLE_EQ(h.p95(), 7.5);
    EXPECT_DOUBLE_EQ(h.p99(), 7.5);
}

TEST(Histogram, PercentilesMatchFreeFunction)
{
    Histogram h;
    std::vector<double> xs{5.0, 1.0, 3.0, 9.0, 7.0};
    for (double x : xs)
        h.add(x);
    for (double p : {0.0, 25.0, 50.0, 75.0, 95.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), percentile(xs, p)) << p;
}

TEST(Histogram, AddAfterPercentileResorts)
{
    Histogram h;
    h.add(10.0);
    h.add(20.0);
    EXPECT_DOUBLE_EQ(h.p50(), 15.0);
    h.add(0.0); // Arrives out of order after a lazy sort.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.p50(), 10.0);
}

TEST(Histogram, MergeFoldsSamples)
{
    Histogram a, b;
    a.add(1.0);
    a.add(2.0);
    b.add(3.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.sum(), 10.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_DOUBLE_EQ(a.p50(), 2.5);
    // The source histogram is unchanged.
    EXPECT_EQ(b.count(), 2u);
}

TEST(Histogram, MergeEmptyIsNoop)
{
    Histogram a, empty;
    a.add(5.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.p50(), 5.0);
}

} // namespace
} // namespace bitspec
