/**
 * @file
 * Exact latency statistics.
 *
 * The paper reports 99th-percentile latencies; with the sample counts
 * used per load point (1e5..1e6) exact selection is cheap, so the
 * recorder stores every post-warmup sample and computes percentiles by
 * nth_element rather than approximating. A nearest-rank percentile is
 * an order statistic, so selection returns exactly the value a full
 * sort would; no path here sorts a whole sequence.
 */

#ifndef RPCVALET_STATS_LATENCY_RECORDER_HH
#define RPCVALET_STATS_LATENCY_RECORDER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace rpcvalet::stats {

/**
 * Arithmetic mean of @p samples in nanoseconds, summed in their order
 * (0 if empty). Callers that also select percentiles take the mean
 * first: selection permutes the samples, and a floating-point sum
 * depends on its order.
 */
double meanNs(const std::vector<sim::Tick> &samples);

/**
 * Nearest-rank percentiles of a sample buffer by selection, in
 * ascending p. Each call places the order statistic of rank
 * ceil(p/100 * n) (p = 0: the minimum) with std::nth_element, searching
 * only the suffix from the previous call's rank on, so p50, p90, p99 and
 * p99.9 of one buffer cost about 1.6 linear passes rather than a sort.
 * The buffer is permuted in place; percentiles of an empty buffer are 0.
 */
class PercentileSelector
{
  public:
    explicit PercentileSelector(std::vector<sim::Tick> &samples)
        : samples_(samples)
    {}

    /** Percentile @p p in [0, 100]; p must not fall between calls. */
    double percentileNs(double p);

  private:
    std::vector<sim::Tick> &samples_;
    /** Rank the previous call placed: the start of the unordered
     *  suffix the next call selects in. */
    std::size_t from_ = 0;
    double lastP_ = 0.0;
};

/** Collects latency samples (in ticks) and reports summary statistics. */
class LatencyRecorder
{
  public:
    /**
     * @param warmup_samples Number of leading samples to discard, so
     * cold-start transients do not pollute tail measurements.
     */
    explicit LatencyRecorder(std::uint64_t warmup_samples = 0);

    /** Record one latency observation. */
    void record(sim::Tick latency);

    /** Number of retained (post-warmup) samples. */
    std::uint64_t count() const { return samples_.size(); }

    /** Total observations, including discarded warmup ones. */
    std::uint64_t observed() const { return observed_; }

    /** Arithmetic mean of retained samples (0 if empty). */
    double meanNs() const;

    /**
     * Exact percentile of retained samples, p in [0, 100]. Uses the
     * nearest-rank definition; p=0 is the minimum, p=100 the maximum.
     * Returns 0 when no samples were retained.
     */
    double percentileNs(double p) const;

    /** Convenience: 99th percentile in nanoseconds. */
    double p99Ns() const { return percentileNs(99.0); }

    /** Maximum retained sample (0 if empty). */
    double maxNs() const;

    /** Forget all samples and restart the warmup window. */
    void reset();

    /** Read-only view of the retained samples (ticks). */
    const std::vector<sim::Tick> &samples() const { return samples_; }

  private:
    std::uint64_t warmup_;
    std::uint64_t observed_ = 0;
    std::vector<sim::Tick> samples_;
    // percentileNs() selects within a copy of the samples, made on the
    // first query after a record; mutable scratch keeps the public
    // interface const.
    mutable std::vector<sim::Tick> scratch_;
    mutable bool scratchValid_ = false;
};

} // namespace rpcvalet::stats

#endif // RPCVALET_STATS_LATENCY_RECORDER_HH
