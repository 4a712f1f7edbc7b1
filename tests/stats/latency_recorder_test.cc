/**
 * @file
 * Unit tests for exact percentile computation and warmup handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "stats/latency_recorder.hh"

namespace {

using rpcvalet::sim::nanoseconds;
using rpcvalet::stats::LatencyRecorder;

TEST(LatencyRecorder, EmptyRecorderReportsZeros)
{
    LatencyRecorder rec;
    EXPECT_EQ(rec.count(), 0u);
    EXPECT_DOUBLE_EQ(rec.meanNs(), 0.0);
    EXPECT_DOUBLE_EQ(rec.p99Ns(), 0.0);
    EXPECT_DOUBLE_EQ(rec.maxNs(), 0.0);
}

TEST(LatencyRecorder, MeanOfKnownSamples)
{
    LatencyRecorder rec;
    rec.record(nanoseconds(100));
    rec.record(nanoseconds(200));
    rec.record(nanoseconds(300));
    EXPECT_DOUBLE_EQ(rec.meanNs(), 200.0);
    EXPECT_EQ(rec.count(), 3u);
}

TEST(LatencyRecorder, WarmupSamplesDiscarded)
{
    LatencyRecorder rec(/*warmup_samples=*/2);
    rec.record(nanoseconds(1000000)); // discarded
    rec.record(nanoseconds(1000000)); // discarded
    rec.record(nanoseconds(100));
    rec.record(nanoseconds(200));
    EXPECT_EQ(rec.count(), 2u);
    EXPECT_EQ(rec.observed(), 4u);
    EXPECT_DOUBLE_EQ(rec.meanNs(), 150.0);
}

TEST(LatencyRecorder, PercentileEdgeCases)
{
    LatencyRecorder rec;
    for (int i = 1; i <= 100; ++i)
        rec.record(nanoseconds(i));
    EXPECT_DOUBLE_EQ(rec.percentileNs(0.0), 1.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(100.0), 100.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(50.0), 50.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(99.0), 99.0);
    EXPECT_DOUBLE_EQ(rec.percentileNs(1.0), 1.0);
}

TEST(LatencyRecorder, SingleSampleAllPercentiles)
{
    LatencyRecorder rec;
    rec.record(nanoseconds(42));
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(rec.percentileNs(p), 42.0);
}

TEST(LatencyRecorder, PercentileMatchesSortedReference)
{
    // Property: nearest-rank percentile equals the sorted array lookup
    // for random data.
    rpcvalet::sim::Rng rng(5);
    LatencyRecorder rec;
    std::vector<double> ref;
    for (int i = 0; i < 9973; ++i) {
        const double v = rng.uniformRange(0.0, 1e6);
        rec.record(nanoseconds(v));
        ref.push_back(rpcvalet::sim::toNs(nanoseconds(v)));
    }
    std::sort(ref.begin(), ref.end());
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        const auto rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(ref.size())));
        EXPECT_DOUBLE_EQ(rec.percentileNs(p), ref[rank - 1])
            << "percentile " << p;
    }
}

TEST(LatencyRecorder, RecordAfterQueryKeepsCorrectness)
{
    // The lazy selection scratch must invalidate on new samples.
    LatencyRecorder rec;
    rec.record(nanoseconds(10));
    EXPECT_DOUBLE_EQ(rec.p99Ns(), 10.0);
    rec.record(nanoseconds(1000));
    EXPECT_DOUBLE_EQ(rec.p99Ns(), 1000.0);
}

TEST(LatencyRecorder, ResetClearsEverything)
{
    LatencyRecorder rec(1);
    rec.record(nanoseconds(5));
    rec.record(nanoseconds(6));
    rec.reset();
    EXPECT_EQ(rec.count(), 0u);
    EXPECT_EQ(rec.observed(), 0u);
    rec.record(nanoseconds(7)); // warmup again after reset
    EXPECT_EQ(rec.count(), 0u);
    rec.record(nanoseconds(8));
    EXPECT_EQ(rec.count(), 1u);
}

TEST(LatencyRecorder, MaxTracksLargestSample)
{
    LatencyRecorder rec;
    rec.record(nanoseconds(300));
    rec.record(nanoseconds(100));
    rec.record(nanoseconds(200));
    EXPECT_DOUBLE_EQ(rec.maxNs(), 300.0);
}

} // namespace
