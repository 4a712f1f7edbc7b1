/**
 * @file
 * Exact latency statistics.
 *
 * The paper reports 99th-percentile latencies; with the sample counts
 * used per load point (1e5..1e6) exact selection is cheap, so the
 * recorder stores every post-warmup sample and computes percentiles by
 * nth_element rather than approximating.
 */

#ifndef RPCVALET_STATS_LATENCY_RECORDER_HH
#define RPCVALET_STATS_LATENCY_RECORDER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace rpcvalet::stats {

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

    /**
     * Append every retained sample of @p other, in its recording
     * order, after this recorder's own, and add its observation
     * count; @p other is left empty. Absorbing into an empty recorder
     * takes the sample buffer over without copying. Absorbed samples
     * are not subject to this recorder's warmup.
     */
    void absorb(LatencyRecorder &&other);

    /** Read-only view of the retained samples (ticks). */
    const std::vector<sim::Tick> &samples() const { return samples_; }

  private:
    std::uint64_t warmup_;
    std::uint64_t observed_ = 0;
    std::vector<sim::Tick> samples_;
    // percentileNs() sorts lazily; mutable scratch keeps the public
    // interface const.
    mutable std::vector<sim::Tick> sorted_;
    mutable bool sortedValid_ = false;
};

} // namespace rpcvalet::stats

#endif // RPCVALET_STATS_LATENCY_RECORDER_HH
