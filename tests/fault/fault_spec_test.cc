/**
 * @file
 * Tests of the fault registry and spec resolution: every malformed
 * spec dies loudly at parse/resolve time (never mid-run), the
 * resolved timeline is deterministic and sorted, and RetryPolicy
 * validation rejects inconsistent settings.
 */

#include <gtest/gtest.h>

#include <string>

#include "fault/fault.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

fault::Resolution
resolve(const std::vector<fault::FaultSpec> &specs,
        std::uint32_t nodes = 4, std::uint32_t cores = 16)
{
    return fault::resolveFaults(specs, fault::ResolveContext{nodes, cores});
}

// ----- registry -----

TEST(FaultRegistry, BuiltinsAreRegistered)
{
    auto &reg = fault::FaultRegistry::instance();
    for (const char *name :
         {"crash", "packet-loss", "packet-delay", "packet-corrupt",
          "ni-stall", "slow-core"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
}

TEST(FaultRegistryDeath, UnknownNameListsEveryRegisteredFault)
{
    EXPECT_EXIT((void)fault::FaultRegistry::instance().make(
                    fault::FaultSpec("pakcet-loss:p=0.1")),
                ::testing::ExitedWithCode(1),
                "unknown fault 'pakcet-loss'.*crash.*packet-loss");
}

// ----- malformed parameters die at make() time -----

TEST(FaultSpecDeath, LossProbabilityAboveOneIsFatal)
{
    EXPECT_EXIT((void)fault::FaultRegistry::instance().make(
                    fault::FaultSpec("packet-loss:p=1.5")),
                ::testing::ExitedWithCode(1), "p.*\\[0, 1\\]");
}

TEST(FaultSpecDeath, CorruptNeedsAProbability)
{
    EXPECT_EXIT((void)fault::FaultRegistry::instance().make(
                    fault::FaultSpec("packet-corrupt")),
                ::testing::ExitedWithCode(1), "requires a p=");
}

TEST(FaultSpecDeath, DelayWithNoEffectIsFatal)
{
    EXPECT_EXIT((void)fault::FaultRegistry::instance().make(
                    fault::FaultSpec("packet-delay:add=0,jitter=0")),
                ::testing::ExitedWithCode(1), "add.*jitter");
}

TEST(FaultSpecDeath, SlowCoreFactorBelowOneIsFatal)
{
    EXPECT_EXIT((void)fault::FaultRegistry::instance().make(
                    fault::FaultSpec(
                        "slow-core:node=0,core=0,factor=0.5,at=1us,"
                        "for=1us")),
                ::testing::ExitedWithCode(1), "factor");
    // inf would pass 'factor >= 1'; real parameters are finite at parse.
    EXPECT_EXIT((void)fault::FaultRegistry::instance().make(
                    fault::FaultSpec(
                        "slow-core:node=0,core=0,factor=inf,at=1us,"
                        "for=1us")),
                ::testing::ExitedWithCode(1),
                "parameter 'factor=inf': 'inf' is not a finite number");
}

TEST(FaultSpecDeath, NiStallNeedsAPositiveDuration)
{
    EXPECT_EXIT((void)fault::FaultRegistry::instance().make(
                    fault::FaultSpec("ni-stall:node=0,at=1us,for=0")),
                ::testing::ExitedWithCode(1), "for");
}

// ----- shape checks die at resolve() time -----

TEST(FaultResolveDeath, CrashOfOutOfRangeNodeIsFatal)
{
    EXPECT_EXIT((void)resolve({"crash:node=4,at=10us"}, /*nodes=*/4),
                ::testing::ExitedWithCode(1),
                "node 4 is out of range for 4 server nodes");
}

TEST(FaultResolveDeath, SlowCoreOfOutOfRangeCoreIsFatal)
{
    EXPECT_EXIT((void)resolve({"slow-core:node=0,core=16,factor=2,"
                               "at=1us,for=1us"},
                              /*nodes=*/4, /*cores=*/16),
                ::testing::ExitedWithCode(1), "core 16");
}

// ----- resolution products -----

TEST(FaultResolve, TimelineSortedByActivationTime)
{
    const fault::Resolution r = resolve({
        "crash:node=3,at=100us,recover_after=300us",
        "packet-loss:p=0.005",
        "ni-stall:node=1,at=50us,for=10us",
    });
    ASSERT_EQ(r.timeline.size(), 3u);
    // Run-wide packet faults sort first (at = 0), then by time.
    EXPECT_EQ(r.timeline[0].kind, "packet-loss");
    EXPECT_FALSE(r.timeline[0].timed);
    EXPECT_EQ(r.timeline[1].kind, "ni-stall");
    EXPECT_EQ(r.timeline[1].node, 1);
    EXPECT_EQ(r.timeline[2].kind, "crash");
    EXPECT_EQ(r.timeline[2].node, 3);
    EXPECT_EQ(r.timeline[2].at, sim::microseconds(100.0));
    EXPECT_EQ(r.timeline[2].until, sim::microseconds(400.0));

    ASSERT_EQ(r.packet.size(), 1u);
    EXPECT_EQ(r.packet[0].kind,
              fault::PacketFaultConfig::Kind::Loss);
    EXPECT_TRUE(r.dropsPackets());
    EXPECT_FALSE(r.corruptsReplies());
}

TEST(FaultResolve, DescribeNamesTargetAndWindow)
{
    const fault::Resolution r = resolve(
        {"crash:node=2,at=10us,recover_after=5us", "packet-loss:p=0.1"});
    const std::string crash = r.timeline.back().describe();
    EXPECT_NE(crash.find("node 2"), std::string::npos) << crash;
    EXPECT_NE(crash.find("[10.000 us, 15.000 us)"), std::string::npos)
        << crash;
    const std::string loss = r.timeline.front().describe();
    EXPECT_NE(loss.find("fabric"), std::string::npos) << loss;
    EXPECT_NE(loss.find("whole run"), std::string::npos) << loss;
}

TEST(FaultResolve, DegradedWindowsMergeOverlaps)
{
    const fault::Resolution r = resolve({
        "ni-stall:node=0,at=10us,for=20us",
        "ni-stall:node=1,at=20us,for=20us",
        "crash:node=2,at=100us,recover_after=10us",
    });
    const auto windows = r.degradedWindows();
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].first, sim::microseconds(10.0));
    EXPECT_EQ(windows[0].second, sim::microseconds(40.0));
    EXPECT_EQ(windows[1].first, sim::microseconds(100.0));
    EXPECT_EQ(windows[1].second, sim::microseconds(110.0));
}

// ----- retry policy -----

TEST(RetryPolicy, DefaultsAreInactiveLegacyBehavior)
{
    const fault::RetryPolicy p;
    EXPECT_FALSE(p.active());
    p.validate(/*requestTimeout=*/0); // inactive needs no timeout
}

TEST(RetryPolicyDeath, ActivePolicyNeedsARequestTimeout)
{
    fault::RetryPolicy p;
    p.maxAttempts = 3;
    EXPECT_TRUE(p.active());
    EXPECT_EXIT(p.validate(/*requestTimeout=*/0),
                ::testing::ExitedWithCode(1), "timeout");
}

TEST(RetryPolicyDeath, HedgeAtOrPastTheTimeoutIsFatal)
{
    fault::RetryPolicy p;
    p.hedgeAfter = sim::microseconds(30.0);
    EXPECT_EXIT(p.validate(sim::microseconds(30.0)),
                ::testing::ExitedWithCode(1), "hedge");
}

TEST(RetryPolicyDeath, MultiplierBelowOneIsFatal)
{
    fault::RetryPolicy p;
    p.maxAttempts = 2;
    p.multiplier = 0.5;
    EXPECT_EXIT(p.validate(sim::microseconds(10.0)),
                ::testing::ExitedWithCode(1), "multiplier");
}

} // namespace
