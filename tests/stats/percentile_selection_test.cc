/**
 * @file
 * Percentiles by selection equal percentiles by sorting.
 *
 * The harvest (PercentileSelector, ascending p over one buffer) and
 * LatencyRecorder::percentileNs (any order) both select order
 * statistics with std::nth_element. Each result must equal the
 * nearest-rank lookup sorted[ceil(p/100 * n) - 1] into a sorted copy
 * made here, and the mean, summed before any selection permutes the
 * buffer, must equal the in-order sum bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "stats/latency_recorder.hh"

namespace {

using namespace rpcvalet;
using sim::Tick;

const double kPercentiles[] = {0.0, 0.1, 50.0, 90.0, 99.0, 99.9, 100.0};

/** The nearest-rank reference: index a sorted copy (p = 0: minimum). */
double
sortedReference(std::vector<Tick> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(p / 100.0 * n)));
    return sim::toNs(sorted[rank - 1]);
}

/** The in-order mean in ns, as the sample log's order fixes it. */
double
inOrderMean(const std::vector<Tick> &samples)
{
    double sum = 0.0;
    for (const Tick t : samples)
        sum += static_cast<double>(t);
    return sum / static_cast<double>(samples.size()) /
           static_cast<double>(sim::ticksPerNs);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

enum class Shape
{
    Random,
    AllEqual,
    TwoValued,
    Sorted,
    ReverseSorted,
};

std::vector<Tick>
makeSamples(Shape shape, std::size_t n)
{
    sim::Rng rng(n * 7 + static_cast<std::uint64_t>(shape));
    std::vector<Tick> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (shape) {
          case Shape::Random:
            v[i] = rng.uniformInt(0, 5000000);
            break;
          case Shape::AllEqual:
            v[i] = 123456;
            break;
          case Shape::TwoValued:
            v[i] = rng.uniform() < 0.3 ? 900 : 100;
            break;
          case Shape::Sorted:
          case Shape::ReverseSorted:
            v[i] = rng.uniformInt(0, 5000000);
            break;
        }
    }
    if (shape == Shape::Sorted)
        std::sort(v.begin(), v.end());
    if (shape == Shape::ReverseSorted)
        std::sort(v.rbegin(), v.rend());
    return v;
}

struct Case
{
    std::size_t n;
    Shape shape;
};

class SelectionEqualsSort : public ::testing::TestWithParam<Case>
{
};

TEST_P(SelectionEqualsSort, AscendingSelectorOverOneBuffer)
{
    const std::vector<Tick> samples =
        makeSamples(GetParam().shape, GetParam().n);
    std::vector<Tick> buffer = samples;
    // The harvest's order: the mean first, then ascending selection.
    EXPECT_TRUE(sameBits(stats::meanNs(buffer), inOrderMean(samples)));
    stats::PercentileSelector select(buffer);
    for (const double p : kPercentiles) {
        EXPECT_EQ(select.percentileNs(p), sortedReference(samples, p))
            << "p" << p;
    }
    // Selection only permutes.
    std::vector<Tick> a = samples;
    std::sort(a.begin(), a.end());
    std::sort(buffer.begin(), buffer.end());
    EXPECT_EQ(a, buffer);
}

TEST_P(SelectionEqualsSort, SelectorRepeatsARankWithoutMoving)
{
    std::vector<Tick> buffer = makeSamples(GetParam().shape, GetParam().n);
    const std::vector<Tick> samples = buffer;
    stats::PercentileSelector select(buffer);
    const double p99 = select.percentileNs(99.0);
    EXPECT_EQ(select.percentileNs(99.0), p99);
    EXPECT_EQ(p99, sortedReference(samples, 99.0));
}

TEST_P(SelectionEqualsSort, RecorderInAnyOrder)
{
    const std::vector<Tick> samples =
        makeSamples(GetParam().shape, GetParam().n);
    stats::LatencyRecorder rec;
    for (const Tick t : samples)
        rec.record(t);
    EXPECT_TRUE(sameBits(rec.meanNs(), inOrderMean(samples)));
    // Descending, then ascending: every query selects over the whole
    // (already permuted) scratch.
    for (auto it = std::rbegin(kPercentiles); it != std::rend(kPercentiles);
         ++it) {
        EXPECT_EQ(rec.percentileNs(*it), sortedReference(samples, *it))
            << "p" << *it;
    }
    for (const double p : kPercentiles) {
        EXPECT_EQ(rec.percentileNs(p), sortedReference(samples, p))
            << "p" << p;
    }
    // The mean is read off the samples, never the permuted scratch.
    EXPECT_TRUE(sameBits(rec.meanNs(), inOrderMean(samples)));
    EXPECT_EQ(rec.samples(), samples);
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const std::size_t n : {1, 2, 999, 1000, 1001, 100000}) {
        for (const Shape s : {Shape::Random, Shape::AllEqual,
                              Shape::TwoValued, Shape::Sorted,
                              Shape::ReverseSorted})
            cases.push_back(Case{n, s});
    }
    return cases;
}

const char *
shapeName(Shape s)
{
    switch (s) {
      case Shape::Random:
        return "random";
      case Shape::AllEqual:
        return "allEqual";
      case Shape::TwoValued:
        return "twoValued";
      case Shape::Sorted:
        return "sorted";
      case Shape::ReverseSorted:
        return "reverseSorted";
    }
    return "?";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectionEqualsSort, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Case> &case_info) {
        return std::string(shapeName(case_info.param.shape)) + "_n" +
               std::to_string(case_info.param.n);
    });

TEST(PercentileSelector, EmptyBufferReportsZero)
{
    std::vector<Tick> empty;
    EXPECT_EQ(stats::meanNs(empty), 0.0);
    stats::PercentileSelector select(empty);
    EXPECT_EQ(select.percentileNs(50.0), 0.0);
    EXPECT_EQ(select.percentileNs(99.9), 0.0);
}

TEST(PercentileSelectorDeathTest, DescendingPercentileIsFatal)
{
    std::vector<Tick> buffer = {3, 1, 2};
    stats::PercentileSelector select(buffer);
    select.percentileNs(99.0);
    EXPECT_DEATH(select.percentileNs(50.0), "ascending");
}

} // namespace
