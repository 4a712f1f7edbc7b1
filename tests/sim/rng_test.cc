/**
 * @file
 * Unit tests for the xoshiro256** generator and its samplers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sim/rng.hh"

namespace {

using rpcvalet::sim::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(123), b(124);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, DifferentStreamsDiverge)
{
    Rng a(123, 0), b(123, 1);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIntCoversFullRangeInclusive)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, UniformIntSingletonRange)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42u);
}

TEST(Rng, UniformIntIsUnbiased)
{
    // Chi-squared-ish check over 16 buckets.
    Rng rng(17);
    const int n = 160000;
    std::vector<int> counts(16, 0);
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(0, 15)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 16, n / 16 / 10);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(23);
    const double mean = 300.0;
    double sum = 0.0;
    const int n = 300000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.01);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(31);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

} // namespace
