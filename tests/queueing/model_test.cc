/**
 * @file
 * Validation of the theoretical Q x U queuing simulator against
 * closed-form queuing theory and the paper's §2.2 expectations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "queueing/model.hh"
#include "sim/distributions.hh"

namespace {

using namespace rpcvalet;
using queueing::ModelConfig;
using queueing::ModelResult;
using queueing::runModel;

TEST(QueueingModel, Fig2aPointMatchesRecordedRun)
{
    // Bit-exact replay of one Fig. 2a point, M/M/16 (1x16) at 0.8 load:
    // pins the model's arrival, routing and service streams.
    sim::ExponentialDist service(600.0);
    ModelConfig cfg;
    cfg.numQueues = 1;
    cfg.unitsPerQueue = 16;
    cfg.arrivalRps = 0.8 * 16 / (600.0 * 1e-9);
    cfg.service = &service;
    cfg.seed = 1;
    cfg.warmupCompletions = 2000;
    cfg.measuredCompletions = 20000;
    const ModelResult r = runModel(cfg);
    EXPECT_EQ(r.point.meanNs, 640.54740400000003);
    EXPECT_EQ(r.point.p50Ns, 461.02699999999999);
    EXPECT_EQ(r.point.p90Ns, 1434.527);
    EXPECT_EQ(r.point.p99Ns, 2801.1309999999999);
    EXPECT_EQ(r.point.achievedRps, 21275137.334016606);
    EXPECT_EQ(r.point.samples, 20000u);
    EXPECT_EQ(r.simulatedNs, 1032861.166);
}

/** M/M/1 mean sojourn time: 1 / (mu - lambda). */
TEST(QueueingModel, MM1MeanSojournMatchesTheory)
{
    sim::ExponentialDist service(1000.0); // 1 us mean -> mu = 1 Mrps
    ModelConfig cfg;
    cfg.numQueues = 1;
    cfg.unitsPerQueue = 1;
    cfg.arrivalRps = 0.5e6; // rho = 0.5
    cfg.service = &service;
    cfg.seed = 42;
    cfg.warmupCompletions = 50000;
    cfg.measuredCompletions = 400000;
    const ModelResult r = runModel(cfg);
    // Theory: E[T] = 1/(mu - lambda) = 1/(1e6 - 0.5e6) s = 2000 ns.
    EXPECT_NEAR(r.point.meanNs, 2000.0, 2000.0 * 0.03);
}

TEST(QueueingModel, MM1P99MatchesTheory)
{
    // Sojourn time in M/M/1 is exponential with rate (mu - lambda):
    // p99 = -ln(0.01) / (mu - lambda).
    sim::ExponentialDist service(1000.0);
    ModelConfig cfg;
    cfg.numQueues = 1;
    cfg.unitsPerQueue = 1;
    cfg.arrivalRps = 0.7e6;
    cfg.service = &service;
    cfg.seed = 43;
    cfg.warmupCompletions = 50000;
    cfg.measuredCompletions = 400000;
    const ModelResult r = runModel(cfg);
    const double expected = -std::log(0.01) / (1e6 - 0.7e6) * 1e9;
    EXPECT_NEAR(r.point.p99Ns, expected, expected * 0.06);
}

TEST(QueueingModel, MD1MeanWaitMatchesPollaczekKhinchine)
{
    // M/D/1: E[W] = rho * S / (2 * (1 - rho)).
    sim::FixedDist service(1000.0);
    ModelConfig cfg;
    cfg.numQueues = 1;
    cfg.unitsPerQueue = 1;
    cfg.arrivalRps = 0.6e6;
    cfg.service = &service;
    cfg.seed = 44;
    cfg.warmupCompletions = 50000;
    cfg.measuredCompletions = 400000;
    const ModelResult r = runModel(cfg);
    const double rho = 0.6;
    const double expected_wait = rho * 1000.0 / (2.0 * (1.0 - rho));
    EXPECT_NEAR(r.point.meanNs - 1000.0, expected_wait,
                expected_wait * 0.05);
}

TEST(QueueingModel, LowLoadSojournApproachesServiceTime)
{
    sim::FixedDist service(500.0);
    ModelConfig cfg;
    cfg.numQueues = 1;
    cfg.unitsPerQueue = 16;
    cfg.arrivalRps = 1e5; // essentially idle
    cfg.service = &service;
    cfg.seed = 45;
    cfg.warmupCompletions = 1000;
    cfg.measuredCompletions = 50000;
    const ModelResult r = runModel(cfg);
    EXPECT_NEAR(r.point.meanNs, 500.0, 5.0);
    EXPECT_NEAR(r.point.p99Ns, 500.0, 5.0);
}

TEST(QueueingModel, AchievedMatchesOfferedBelowSaturation)
{
    sim::ExponentialDist service(600.0);
    ModelConfig cfg;
    cfg.numQueues = 1;
    cfg.unitsPerQueue = 16;
    cfg.arrivalRps = 10e6; // rho = 0.375
    cfg.service = &service;
    cfg.seed = 46;
    cfg.warmupCompletions = 20000;
    cfg.measuredCompletions = 300000;
    const ModelResult r = runModel(cfg);
    EXPECT_NEAR(r.point.achievedRps, 10e6, 10e6 * 0.03);
}

TEST(QueueingModel, ThroughputCapsAtCapacityAboveSaturation)
{
    sim::FixedDist service(1000.0); // capacity = 16 Mrps for 16 units
    ModelConfig cfg;
    cfg.numQueues = 1;
    cfg.unitsPerQueue = 16;
    cfg.arrivalRps = 32e6; // 2x overload
    cfg.service = &service;
    cfg.seed = 47;
    cfg.warmupCompletions = 20000;
    cfg.measuredCompletions = 200000;
    const ModelResult r = runModel(cfg);
    EXPECT_NEAR(r.point.achievedRps, 16e6, 16e6 * 0.05);
    EXPECT_LT(r.point.achievedRps, 17e6);
}

// ----- §2.2 qualitative results, parameterized over distribution -----

struct OrderingCase
{
    const char *name;
    sim::SyntheticKind kind;
};

class ModelOrdering : public ::testing::TestWithParam<OrderingCase>
{
};

TEST_P(ModelOrdering, SingleQueueBeatsPartitionedAtTail)
{
    // 1x16 must have a lower p99 than 16x1 at moderate-high load for
    // every service-time family (Fig. 2).
    auto dist = sim::makeSynthetic(GetParam().kind);
    const double capacity = 16.0 / (dist->mean() * 1e-9);

    auto p99_of = [&](unsigned q, unsigned u) {
        ModelConfig cfg;
        cfg.numQueues = q;
        cfg.unitsPerQueue = u;
        cfg.arrivalRps = 0.7 * capacity;
        cfg.service = dist.get();
        cfg.seed = 48;
        cfg.warmupCompletions = 20000;
        cfg.measuredCompletions = 150000;
        return runModel(cfg).point.p99Ns;
    };

    const double single = p99_of(1, 16);
    const double partitioned = p99_of(16, 1);
    EXPECT_LT(single, partitioned)
        << "1x16 should beat 16x1 for " << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, ModelOrdering,
    ::testing::Values(
        OrderingCase{"fixed", sim::SyntheticKind::Fixed},
        OrderingCase{"uniform", sim::SyntheticKind::Uniform},
        OrderingCase{"exponential", sim::SyntheticKind::Exponential},
        OrderingCase{"gev", sim::SyntheticKind::Gev}),
    [](const auto &tpinfo) { return std::string(tpinfo.param.name); });

TEST(QueueingModel, IntermediateConfigsLieBetweenExtremes)
{
    // Fig. 2a: performance is proportional to U. Check p99(1x16) <=
    // p99(4x4) <= p99(16x1) at high load with exponential service.
    sim::ExponentialDist service(600.0);
    const double capacity = 16.0 / (600e-9);
    auto p99_of = [&](unsigned q, unsigned u, std::uint64_t seed) {
        ModelConfig cfg;
        cfg.numQueues = q;
        cfg.unitsPerQueue = u;
        cfg.arrivalRps = 0.8 * capacity;
        cfg.service = &service;
        cfg.seed = seed;
        cfg.warmupCompletions = 20000;
        cfg.measuredCompletions = 200000;
        return runModel(cfg).point.p99Ns;
    };
    const double p_1x16 = p99_of(1, 16, 100);
    const double p_4x4 = p99_of(4, 4, 101);
    const double p_16x1 = p99_of(16, 1, 102);
    EXPECT_LT(p_1x16, p_4x4);
    EXPECT_LT(p_4x4, p_16x1);
}

TEST(QueueingModel, HigherVarianceRaisesTailFor16x1)
{
    // Fig. 2c: TL_fixed < TL_uni < TL_exp at a fixed load (16x1).
    auto p99_of = [&](sim::SyntheticKind kind) {
        auto dist = sim::makeSynthetic(kind);
        const double capacity = 16.0 / (dist->mean() * 1e-9);
        ModelConfig cfg;
        cfg.numQueues = 16;
        cfg.unitsPerQueue = 1;
        cfg.arrivalRps = 0.6 * capacity;
        cfg.service = dist.get();
        cfg.seed = 103;
        cfg.warmupCompletions = 20000;
        cfg.measuredCompletions = 200000;
        return runModel(cfg).point.p99Ns;
    };
    const double fixed = p99_of(sim::SyntheticKind::Fixed);
    const double uni = p99_of(sim::SyntheticKind::Uniform);
    const double exp = p99_of(sim::SyntheticKind::Exponential);
    EXPECT_LT(fixed, uni);
    EXPECT_LT(uni, exp);
}

TEST(QueueingModel, DeterministicForSameSeed)
{
    sim::ExponentialDist service(600.0);
    ModelConfig cfg;
    cfg.numQueues = 4;
    cfg.unitsPerQueue = 4;
    cfg.arrivalRps = 10e6;
    cfg.service = &service;
    cfg.seed = 7;
    cfg.warmupCompletions = 1000;
    cfg.measuredCompletions = 30000;
    const ModelResult a = runModel(cfg);
    const ModelResult b = runModel(cfg);
    EXPECT_DOUBLE_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_DOUBLE_EQ(a.point.meanNs, b.point.meanNs);
    EXPECT_DOUBLE_EQ(a.simulatedNs, b.simulatedNs);
}

TEST(QueueingModel, LoadSweepProducesMonotoneThroughput)
{
    sim::ExponentialDist service(600.0);
    queueing::SweepConfig sweep;
    sweep.numQueues = 1;
    sweep.unitsPerQueue = 16;
    sweep.loads = {0.2, 0.4, 0.6, 0.8};
    sweep.service = &service;
    sweep.seed = 9;
    sweep.warmupCompletions = 5000;
    sweep.measuredCompletions = 60000;
    sweep.label = "1x16";
    const auto series = queueing::runLoadSweep(sweep);
    ASSERT_EQ(series.points.size(), 4u);
    for (size_t i = 1; i < series.points.size(); ++i) {
        EXPECT_GT(series.points[i].achievedRps,
                  series.points[i - 1].achievedRps);
        EXPECT_GE(series.points[i].p99Ns, series.points[i - 1].p99Ns * 0.9);
    }
}

} // namespace
