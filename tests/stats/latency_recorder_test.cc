/**
 * @file
 * Unit tests for exact percentile computation and warmup handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
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

TEST(LatencyRecorder, AbsorbMovesSamplesInAppendOrder)
{
    LatencyRecorder a(/*warmup_samples=*/1);
    a.record(nanoseconds(999)); // discarded as warmup
    a.record(nanoseconds(30));
    a.record(nanoseconds(10));
    LatencyRecorder b;
    b.record(nanoseconds(20));

    // Into an empty recorder: the samples arrive as recorded.
    LatencyRecorder merged;
    merged.absorb(std::move(a));
    ASSERT_EQ(merged.count(), 2u);
    EXPECT_EQ(merged.observed(), 3u);
    EXPECT_EQ(merged.samples()[0], nanoseconds(30));
    EXPECT_EQ(merged.samples()[1], nanoseconds(10));
    EXPECT_DOUBLE_EQ(merged.percentileNs(0.0), 10.0);

    // Into a non-empty one: appended after its own samples, and the
    // cached sort is invalidated.
    merged.absorb(std::move(b));
    EXPECT_EQ(merged.samples(),
              (std::vector<rpcvalet::sim::Tick>{
                  nanoseconds(30), nanoseconds(10), nanoseconds(20)}));
    EXPECT_EQ(merged.count(), 3u);
    EXPECT_EQ(merged.observed(), 4u);
    EXPECT_DOUBLE_EQ(merged.percentileNs(50.0), 20.0);

    // Both sources are left empty.
    for (const LatencyRecorder *src : {&a, &b}) {
        EXPECT_EQ(src->count(), 0u);
        EXPECT_EQ(src->observed(), 0u);
        EXPECT_TRUE(src->samples().empty());
        EXPECT_DOUBLE_EQ(src->p99Ns(), 0.0);
    }
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
    // The lazy sort cache must invalidate on new samples.
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
