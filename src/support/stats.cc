#include "support/stats.h"

#include <algorithm>

#include "support/error.h"

namespace bitspec
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
percentile(std::vector<double> xs, double p)
{
    bsAssert(!xs.empty(), "percentile: empty sample");
    bsAssert(p >= 0.0 && p <= 100.0, "percentile: p out of range");
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs[0];
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

void
Histogram::add(double x)
{
    samples_.push_back(x);
    sum_ += x;
    sorted_ = false;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.samples_.empty())
        return;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
    sorted_ = false;
}

double
Histogram::min() const
{
    if (samples_.empty())
        return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Histogram::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Histogram::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

double
Histogram::percentile(double p) const
{
    bsAssert(p >= 0.0 && p <= 100.0,
             "Histogram::percentile: p out of range");
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    if (samples_.size() == 1)
        return samples_[0];
    double rank =
        p / 100.0 * static_cast<double>(samples_.size() - 1);
    auto lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

} // namespace bitspec
