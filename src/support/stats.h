/**
 * @file
 * Small statistics helpers used by the experiment harnesses.
 */

#ifndef BITSPEC_SUPPORT_STATS_H_
#define BITSPEC_SUPPORT_STATS_H_

#include <cstdint>
#include <vector>

namespace bitspec
{

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile (p in [0, 100]) of a copy of @p xs.
 * Used for the cumulative-distribution experiment (Fig. 16).
 */
double percentile(std::vector<double> xs, double p);

/**
 * Sample-accumulating histogram with exact percentiles: holding the
 * raw samples keeps p50/p95/p99 exact rather than bucketed. Every
 * query on an empty histogram returns 0.
 */
class Histogram
{
  public:
    void add(double x);

    /** Fold @p other's samples into this histogram. */
    void merge(const Histogram &other);

    uint64_t count() const { return samples_.size(); }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /** Linear-interpolated percentile, p in [0, 100]; 0 when empty. */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    const std::vector<double> &samples() const { return samples_; }

  private:
    /** Sorted lazily by percentile(); add/merge just append. */
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    double sum_ = 0.0;
};

} // namespace bitspec

#endif // BITSPEC_SUPPORT_STATS_H_
