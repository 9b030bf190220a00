/**
 * @file
 * Lightweight statistics package: counters, averages, and histograms in
 * the spirit of gem5's stats framework but sized for this simulator.
 * StatsRegistry (util/stats_registry.hh) names and renders them.
 */

#ifndef MESA_UTIL_STATS_HH
#define MESA_UTIL_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace mesa
{

/** A named monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(uint64_t n) { value_ += n; return *this; }

    uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }
    void reset() { value_ = 0; }

  private:
    std::string name_;
    uint64_t value_ = 0;
};

/**
 * Running average of samples. Sum is the accumulator type: double for
 * general samples (AMAT), uint64_t for integer cycle counts, whose sum
 * stays exact and whose mean() equals the double accumulator's as
 * long as the sum is below 2^53.
 */
template <typename Sum>
class BasicAverage
{
  public:
    void
    sample(Sum v)
    {
        sum_ += v;
        ++count_;
    }

    /** Fold in @p count samples whose values add up to @p sum. */
    void
    add(Sum sum, uint64_t count)
    {
        sum_ += sum;
        count_ += count;
    }

    double
    mean() const
    {
        return count_ ? double(sum_) / double(count_) : 0.0;
    }
    uint64_t count() const { return count_; }
    Sum sum() const { return sum_; }
    void reset() { sum_ = 0; count_ = 0; }

  private:
    Sum sum_ = 0;
    uint64_t count_ = 0;
};

using Average = BasicAverage<double>;

/** Average of cycle counts (device-loop and LSU latency counters). */
using CycleAverage = BasicAverage<uint64_t>;

/** Fixed-bucket histogram for latency distributions. */
class Histogram
{
  public:
    /**
     * @param num_buckets number of equal-width buckets
     * @param bucket_width width of each bucket; samples beyond the last
     *                     bucket accumulate in an overflow bucket, and
     *                     negative samples in an underflow bucket
     */
    explicit Histogram(size_t num_buckets = 16, double bucket_width = 4.0)
        : buckets_(num_buckets, 0), width_(bucket_width)
    {
        // Constructed in-line by many components, so validate here
        // (a zero/negative width would fold every sample into bucket
        // 0 or, worse, index with a huge negative-division result).
        if (!(bucket_width > 0.0))
            fatal("Histogram: bucket_width must be positive, got ",
                  bucket_width);
        if (num_buckets == 0)
            fatal("Histogram: need at least one bucket");
    }

    void
    sample(double v)
    {
        ++samples_;
        sum_ += v;
        if (samples_ == 1) {
            min_ = max_ = v;
        } else {
            if (v < min_) min_ = v;
            if (v > max_) max_ = v;
        }
        // A negative sample must not cast to size_t (it would wrap to
        // a huge index and silently land in overflow).
        if (v < 0.0) {
            ++underflow_;
            return;
        }
        const size_t idx = static_cast<size_t>(v / width_);
        if (idx >= buckets_.size())
            ++overflow_;
        else
            ++buckets_[idx];
    }

    /**
     * Nearest-rank quantile estimate from the bucketed distribution,
     * q in [0, 1]. Returns the upper edge of the bucket holding the
     * ceil(q * samples)-th smallest sample (clamped to the observed
     * max), so the estimate never under-reports: it sits within one
     * bucket width above the exact sorted-sample quantile. Ranks that
     * land in the underflow bucket report the true minimum, ranks in
     * the overflow bucket the true maximum; 0 before any sample.
     */
    double
    percentile(double q) const
    {
        if (samples_ == 0)
            return 0.0;
        if (q < 0.0) q = 0.0;
        if (q > 1.0) q = 1.0;
        uint64_t rank =
            static_cast<uint64_t>(std::ceil(q * double(samples_)));
        if (rank == 0)
            rank = 1;
        if (rank > samples_)
            rank = samples_;
        if (rank <= underflow_)
            return min_;
        uint64_t cumulative = underflow_;
        for (size_t i = 0; i < buckets_.size(); ++i) {
            cumulative += buckets_[i];
            if (cumulative >= rank)
                return std::min(max_, double(i + 1) * width_);
        }
        return max_; // Rank falls in the overflow bucket.
    }

    double p50() const { return percentile(0.50); }
    double p99() const { return percentile(0.99); }
    double p999() const { return percentile(0.999); }

    uint64_t samples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
    /** True minimum/maximum of all samples; 0 before any sample. */
    double min() const { return samples_ ? min_ : 0.0; }
    double max() const { return samples_ ? max_ : 0.0; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    double bucketWidth() const { return width_; }
    const std::vector<uint64_t> &buckets() const { return buckets_; }

    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        underflow_ = 0;
        overflow_ = 0;
        samples_ = 0;
        sum_ = 0.0;
        min_ = 0.0;
        max_ = 0.0;
    }

  private:
    std::vector<uint64_t> buckets_;
    double width_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t samples_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace mesa

#endif // MESA_UTIL_STATS_HH
