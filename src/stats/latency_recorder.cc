#include "stats/latency_recorder.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::stats {

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
    sortedValid_ = false;
}

double
LatencyRecorder::meanNs() const
{
    if (samples_.empty())
        return 0.0;
    // Sum in double; individual ticks fit in 53 bits for any realistic
    // latency, and the running sum tolerates the rounding.
    double sum = 0.0;
    for (sim::Tick t : samples_)
        sum += static_cast<double>(t);
    return sum / static_cast<double>(samples_.size()) /
           static_cast<double>(sim::ticksPerNs);
}

double
LatencyRecorder::percentileNs(double p) const
{
    RV_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (samples_.empty())
        return 0.0;
    if (!sortedValid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
    if (p <= 0.0)
        return sim::toNs(sorted_.front());
    // Nearest-rank: ceil(p/100 * N), 1-based.
    const auto n = static_cast<double>(sorted_.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::min(rank, sorted_.size());
    rank = std::max<std::size_t>(rank, 1);
    return sim::toNs(sorted_[rank - 1]);
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
    sorted_.clear();
    sortedValid_ = false;
}

void
LatencyRecorder::absorb(LatencyRecorder &&other)
{
    if (samples_.empty()) {
        samples_ = std::move(other.samples_);
    } else {
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
    }
    observed_ += other.observed_;
    sortedValid_ = false;
    // Release (not just clear) the source's buffers.
    other.samples_ = {};
    other.sorted_ = {};
    other.sortedValid_ = false;
    other.observed_ = 0;
}

} // namespace rpcvalet::stats
