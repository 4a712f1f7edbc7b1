#include "stats/latency_recorder.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace rpcvalet::stats {

namespace {

/** 0-based index of the nearest-rank percentile @p p among @p n. */
std::size_t
nearestRankIndex(double p, std::size_t n)
{
    RV_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (p <= 0.0)
        return 0;
    // Nearest-rank: ceil(p/100 * N), 1-based.
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::min(rank, n);
    rank = std::max<std::size_t>(rank, 1);
    return rank - 1;
}

} // namespace

double
meanNs(const std::vector<sim::Tick> &samples)
{
    if (samples.empty())
        return 0.0;
    // Sum in double; individual ticks fit in 53 bits for any realistic
    // latency, and the running sum tolerates the rounding.
    double sum = 0.0;
    for (sim::Tick t : samples)
        sum += static_cast<double>(t);
    return sum / static_cast<double>(samples.size()) /
           static_cast<double>(sim::ticksPerNs);
}

double
PercentileSelector::percentileNs(double p)
{
    RV_ASSERT(p >= lastP_, "percentiles must be selected in ascending p");
    lastP_ = p;
    const std::size_t k = nearestRankIndex(p, samples_.size());
    if (samples_.empty())
        return 0.0;
    // Everything from the previous call's rank on is >= that rank's
    // value, so rank k lies in that suffix.
    const auto at = samples_.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(samples_.begin() + static_cast<std::ptrdiff_t>(from_),
                     at, samples_.end());
    from_ = k;
    return sim::toNs(*at);
}

LatencyRecorder::LatencyRecorder(std::uint64_t warmup_samples)
    : warmup_(warmup_samples)
{
}

void
LatencyRecorder::record(sim::Tick latency)
{
    ++observed_;
    if (observed_ <= warmup_)
        return;
    samples_.push_back(latency);
    scratchValid_ = false;
}

double
LatencyRecorder::meanNs() const
{
    return stats::meanNs(samples_);
}

double
LatencyRecorder::percentileNs(double p) const
{
    const std::size_t k = nearestRankIndex(p, samples_.size());
    if (samples_.empty())
        return 0.0;
    if (!scratchValid_) {
        scratch_ = samples_;
        scratchValid_ = true;
    }
    // The scratch is a permutation of the samples whatever earlier
    // queries left it as, so selection over all of it is exact.
    const auto at = scratch_.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(scratch_.begin(), at, scratch_.end());
    return sim::toNs(*at);
}

double
LatencyRecorder::maxNs() const
{
    if (samples_.empty())
        return 0.0;
    return sim::toNs(*std::max_element(samples_.begin(), samples_.end()));
}

void
LatencyRecorder::reset()
{
    observed_ = 0;
    samples_.clear();
    scratch_.clear();
    scratchValid_ = false;
}

} // namespace rpcvalet::stats
