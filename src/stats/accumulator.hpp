/**
 * @file
 * Streaming statistics accumulator (Welford's algorithm).
 *
 * Collects count/mean/variance/min/max in O(1) memory; used for user
 * response times and reconstruction phase durations. (Per-disk times
 * are integer tick sums; see DiskStats.)
 */
#pragma once

#include <cstdint>

namespace declust {

/** Single-pass mean/variance/extrema accumulator. */
class Accumulator
{
  public:
    /** Add one sample. Inline: the controller adds two samples per
     * completed user request and the reconstructor three per cycle. */
    void
    add(double x)
    {
        if (n_ == 0) {
            min_ = max_ = x;
        } else {
            min_ = x < min_ ? x : min_;
            max_ = x > max_ ? x : max_;
        }
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
    }

    /** Merge another accumulator into this one. */
    void merge(const Accumulator &other);

    /** Discard all samples. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const;
    /** Unbiased sample variance (0 for < 2 samples). */
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace declust
