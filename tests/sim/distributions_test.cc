/**
 * @file
 * Unit and property tests for the service-time distribution library,
 * including the paper's §5 synthetic profiles.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sim/distributions.hh"

namespace {

using namespace rpcvalet::sim;

/** Sample mean helper with a fixed seed. */
double
sampleMean(const Distribution &d, int n = 300000, std::uint64_t seed = 1)
{
    Rng rng(seed);
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += d.sample(rng);
    return sum / n;
}

TEST(FixedDist, AlwaysReturnsValue)
{
    FixedDist d(300.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(d.sample(rng), 300.0);
    EXPECT_DOUBLE_EQ(d.mean(), 300.0);
}

TEST(UniformDist, BoundsAndMean)
{
    UniformDist d(100.0, 500.0);
    Rng rng(2);
    for (int i = 0; i < 10000; ++i) {
        const double x = d.sample(rng);
        EXPECT_GE(x, 100.0);
        EXPECT_LT(x, 500.0);
    }
    EXPECT_DOUBLE_EQ(d.mean(), 300.0);
    EXPECT_NEAR(sampleMean(d), 300.0, 2.0);
}

TEST(ExponentialDist, MeanMatches)
{
    ExponentialDist d(250.0);
    EXPECT_DOUBLE_EQ(d.mean(), 250.0);
    EXPECT_NEAR(sampleMean(d), 250.0, 2.5);
}

TEST(GevDist, PaperParametersHaveMean600Cycles)
{
    // §5: GEV(363, 100, 0.65) has mean ~600 cycles (300 ns at 2 GHz).
    GevDist d(363.0, 100.0, 0.65);
    EXPECT_NEAR(d.mean(), 600.0, 3.0);
}

TEST(GevDist, SampleMeanTracksAnalyticalMean)
{
    GevDist d(363.0, 100.0, 0.65);
    // Heavy tail (shape 0.65 => infinite variance): use many samples
    // and a loose tolerance.
    EXPECT_NEAR(sampleMean(d, 2000000), d.mean(), d.mean() * 0.05);
}

TEST(GevDist, GumbelLimitMean)
{
    GevDist d(100.0, 50.0, 0.0);
    constexpr double euler_gamma = 0.5772156649015329;
    EXPECT_NEAR(d.mean(), 100.0 + 50.0 * euler_gamma, 1e-9);
    EXPECT_NEAR(sampleMean(d), d.mean(), 1.0);
}

TEST(GevDist, QuantilesMatchInverseCdf)
{
    // For GEV, P(X <= x_q) = q at x_q = loc + scale*((-ln q)^-shape - 1)
    // / shape. Check the empirical CDF at q = 0.5 and q = 0.99.
    GevDist d(363.0, 100.0, 0.65);
    Rng rng(5);
    const int n = 400000;
    auto quantile = [&](double q) {
        return 363.0 + 100.0 * (std::pow(-std::log(q), -0.65) - 1.0) / 0.65;
    };
    int below_median = 0;
    int below_p99 = 0;
    const double x50 = quantile(0.5);
    const double x99 = quantile(0.99);
    for (int i = 0; i < n; ++i) {
        const double x = d.sample(rng);
        below_median += (x <= x50);
        below_p99 += (x <= x99);
    }
    EXPECT_NEAR(below_median / static_cast<double>(n), 0.5, 0.005);
    EXPECT_NEAR(below_p99 / static_cast<double>(n), 0.99, 0.002);
}

TEST(LogNormalDist, FromMeanSigmaHitsRequestedMean)
{
    const auto d = LogNormalDist::fromMeanSigma(330.0, 0.45);
    EXPECT_NEAR(d.mean(), 330.0, 1e-9);
    EXPECT_NEAR(sampleMean(d), 330.0, 3.0);
}

TEST(ShiftedDist, AddsOffset)
{
    ShiftedDist d(300.0, std::make_unique<FixedDist>(42.0));
    Rng rng(1);
    EXPECT_DOUBLE_EQ(d.sample(rng), 342.0);
    EXPECT_DOUBLE_EQ(d.mean(), 342.0);
}

TEST(ClampedDist, RespectsBounds)
{
    ClampedDist d(100.0, 200.0, std::make_unique<ExponentialDist>(150.0));
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const double x = d.sample(rng);
        EXPECT_GE(x, 100.0);
        EXPECT_LE(x, 200.0);
    }
    EXPECT_GE(d.mean(), 100.0);
    EXPECT_LE(d.mean(), 200.0);
}

TEST(ClampedDist, EstimatedMeanTracksSampleMean)
{
    ClampedDist d(0.0, 1000.0,
                  std::make_unique<ExponentialDist>(300.0));
    EXPECT_NEAR(sampleMean(d), d.mean(), d.mean() * 0.02);
}

TEST(ClampedDist, CloneInheritsTheEstimatedMeanBitForBit)
{
    ClampedDist d(80.0, 1000.0,
                  std::make_unique<LogNormalDist>(
                      LogNormalDist::fromMeanSigma(330.0, 0.45)));
    const DistributionPtr copy = d.clone();
    EXPECT_EQ(copy->mean(), d.mean());
    EXPECT_EQ(copy->clone()->mean(), d.mean());
    // The clone samples like the original.
    Rng a(5), b(5);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(copy->sample(a), d.sample(b));
}

TEST(ClampedDist, GivenMeanIsReportedAsIs)
{
    ClampedDist d(0.0, 10.0, std::make_unique<FixedDist>(20.0), 4.25);
    EXPECT_EQ(d.mean(), 4.25);
    Rng rng(1);
    EXPECT_EQ(d.sample(rng), 10.0);
}

TEST(Distribution, CloneProducesIndependentEqualDistribution)
{
    auto d = makeSynthetic(SyntheticKind::Gev);
    auto c = d->clone();
    EXPECT_EQ(d->name(), c->name());
    EXPECT_NEAR(sampleMean(*d, 100000, 3), sampleMean(*c, 100000, 3),
                1e-12);
}

// ----- §5 synthetic profile properties (parameterized) -----

class SyntheticProfile
    : public ::testing::TestWithParam<SyntheticKind>
{
};

TEST_P(SyntheticProfile, MeanIsSixHundredNs)
{
    auto d = makeSynthetic(GetParam());
    // 300 ns base + 300 ns mean extra (§5). GEV's configured mean is
    // ~600 cycles / 2 = ~300 ns, so allow a small tolerance.
    EXPECT_NEAR(d->mean(), 600.0, 5.0);
}

TEST_P(SyntheticProfile, SamplesNeverBelowBaseLatency)
{
    auto d = makeSynthetic(GetParam());
    Rng rng(33);
    for (int i = 0; i < 50000; ++i)
        EXPECT_GE(d->sample(rng), 300.0);
}

TEST_P(SyntheticProfile, SampleMeanTracksConfiguredMean)
{
    auto d = makeSynthetic(GetParam());
    const int n = GetParam() == SyntheticKind::Gev ? 2000000 : 300000;
    EXPECT_NEAR(sampleMean(*d, n), d->mean(), d->mean() * 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SyntheticProfile,
                         ::testing::ValuesIn(allSyntheticKinds()),
                         [](const auto &tpinfo) {
                             return syntheticKindName(tpinfo.param);
                         });

TEST(Synthetic, VarianceOrderingMatchesPaper)
{
    // §2.2: variance(fixed) < variance(uniform) < variance(exp) <
    // variance(GEV tail). Compare p99s as a tail-weight proxy.
    auto p99_of = [](SyntheticKind kind) {
        auto d = makeSynthetic(kind);
        Rng rng(77);
        std::vector<double> xs(200000);
        for (auto &x : xs)
            x = d->sample(rng);
        std::sort(xs.begin(), xs.end());
        return xs[static_cast<size_t>(xs.size() * 0.99)];
    };
    const double fixed = p99_of(SyntheticKind::Fixed);
    const double uni = p99_of(SyntheticKind::Uniform);
    const double exp = p99_of(SyntheticKind::Exponential);
    const double gev = p99_of(SyntheticKind::Gev);
    EXPECT_LT(fixed, uni);
    EXPECT_LT(uni, exp);
    EXPECT_LT(exp, gev);
}

} // namespace
