/**
 * @file
 * End-to-end tests of the topology-driven cluster experiment: the
 * single-node bit-identity lock, multi-node sharded runs, timeout-based
 * failover, and the config validation surrounding them.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/router.hh"
#include "core/experiment.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

// ----- single-node bit-identity lock -----

TEST(ClusterExperiment, SingleNodeDirectIsBitIdenticalToLegacyPath)
{
    // Spelling out numServerNodes=1 + "direct" must not move a single
    // event relative to the default config: these are the same goldens
    // tests/core/kernel_identity_test.cc locks for the default run.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 5000;
    cfg.cluster.numServerNodes = 1;
    cfg.cluster.router = cluster::RouterSpec::parse("direct");

    const core::RunStats r = core::runExperiment(cfg);
    EXPECT_EQ(r.point.p50Ns, 518.72900000000004);
    EXPECT_EQ(r.point.p99Ns, 1089.02);
    EXPECT_EQ(r.point.achievedRps, 9953790.5426921882);
    EXPECT_EQ(r.executedEvents, 93539u);
    EXPECT_EQ(r.completions, 5500u);
    EXPECT_EQ(r.router, "direct");
    ASSERT_EQ(r.perNode.size(), 1u);
    EXPECT_EQ(r.perNode[0].served, 5500u);
    EXPECT_FALSE(r.perNode[0].failed);
    EXPECT_EQ(r.requestTimeouts, 0u);
    EXPECT_EQ(r.failoverReroutes, 0u);
    EXPECT_EQ(r.nodesDown, 0u);
}

// ----- multi-node cluster runs -----

core::ExperimentConfig
clusterConfig(std::uint32_t nodes, const std::string &router)
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 40e6; // ~0.35 of 4-node herd capacity
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 4000;
    cfg.cluster.numServerNodes = nodes;
    cfg.cluster.router = cluster::RouterSpec::parse(router);
    return cfg;
}

TEST(ClusterExperiment, ShardedFourNodeRunServesOnEveryNode)
{
    const core::RunStats r =
        core::runExperiment(clusterConfig(4, "shard"));
    EXPECT_EQ(r.router, "shard");
    ASSERT_EQ(r.perNode.size(), 4u);
    std::uint64_t served_total = 0;
    for (const core::NodeStats &ns : r.perNode) {
        EXPECT_GT(ns.served, 0u) << "node " << ns.nodeId;
        EXPECT_FALSE(ns.failed);
        served_total += ns.served;
    }
    EXPECT_EQ(served_total, r.completions);
    EXPECT_EQ(r.completions, 4500u);
    EXPECT_EQ(r.verifyFailures, 0u);
    EXPECT_EQ(r.point.samples, 4000u);
    EXPECT_GT(r.point.achievedRps, 0.0);
    // Concatenated per-core view covers all four 16-core nodes.
    EXPECT_EQ(r.perCoreServed.size(), 64u);
}

TEST(ClusterExperiment, RoundRobinBalancesServedCounts)
{
    const core::RunStats r = core::runExperiment(clusterConfig(4, "rr"));
    ASSERT_EQ(r.perNode.size(), 4u);
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    for (const core::NodeStats &ns : r.perNode) {
        lo = std::min(lo, ns.served);
        hi = std::max(hi, ns.served);
    }
    // Round-robin is the perfect-spread baseline: the spread stays
    // within a few percent (in-flight rounding only).
    EXPECT_LT(hi - lo, 100u);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(ClusterExperiment, ClusterRunsAreReproducible)
{
    const core::ExperimentConfig cfg =
        clusterConfig(3, "bounded-load:c=1.25");
    const core::RunStats a = core::runExperiment(cfg);
    const core::RunStats b = core::runExperiment(cfg);
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
    ASSERT_EQ(a.perNode.size(), b.perNode.size());
    for (std::size_t i = 0; i < a.perNode.size(); ++i)
        EXPECT_EQ(a.perNode[i].served, b.perNode[i].served);
}

// ----- failover -----

TEST(ClusterExperiment, NodeFailureIsDetectedAndTrafficReroutes)
{
    core::ExperimentConfig cfg = clusterConfig(4, "bounded-load:c=1.25");
    cfg.measuredRpcs = 6000;
    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.cluster.failThreshold = 3;
    cfg.faults = {"crash:node=3,at=20us"};

    const core::RunStats r = core::runExperiment(cfg);
    // The victim died mid-run: its requests timed out, the health
    // tracker took it out of rotation, and every timed-out request
    // was rerouted to a surviving node — with zero verify failures
    // (failOnVerifyError is on, so a corrupted reply would have been
    // fatal before we got here).
    ASSERT_EQ(r.perNode.size(), 4u);
    EXPECT_TRUE(r.perNode[3].failed);
    EXPECT_GE(r.nodesDown, 1u);
    EXPECT_GT(r.requestTimeouts, 0u);
    EXPECT_GT(r.failoverReroutes, 0u);
    EXPECT_EQ(r.verifyFailures, 0u);
    EXPECT_EQ(r.completions, 6500u); // target reached despite the loss
    // The survivors absorbed the rerouted load.
    for (std::uint32_t i = 0; i < 3; ++i)
        EXPECT_GT(r.perNode[i].served, r.perNode[3].served);
}

TEST(ClusterExperiment, ReplyLandingAcrossATimeoutReturnsItsCredit)
{
    // 1536 B reads: every reply is 25 blocks. A 1.2 us timeout expires
    // many requests while their reply is still streaming in. The rest
    // of such a reply must still complete its assembly, so the client
    // counts it stale and returns the server's send-slot credit; a
    // reply whose credit never comes back wedges its mirrored slot,
    // and every later reply on it spins the serving core.
    core::ExperimentConfig cfg;
    cfg.workload = app::WorkloadSpec("herd:value_bytes=1536,read_ratio=1");
    cfg.system.seed = 5;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("rr");
    cfg.cluster.requestTimeout = sim::microseconds(1.2);
    cfg.arrivalRps =
        0.8 * 2 * core::estimateCapacityRps(cfg.system, cfg.workload);
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 5000;

    const core::RunStats r = core::runExperiment(cfg);
    // The path ran: requests timed out and their replies came late.
    EXPECT_GT(r.requestTimeouts, 0u);
    EXPECT_GT(r.staleReplies, 0u);
    EXPECT_EQ(r.replySlotStalls, 0u);
    EXPECT_EQ(r.verifyFailures, 0u);
}

// ----- validation -----

TEST(ClusterExperimentDeath, UnknownRouterDiesBeforeTheRun)
{
    EXPECT_EXIT(
        {
            core::ExperimentConfig cfg;
            cfg.cluster.router.name = "typo";
            (void)core::runExperiment(cfg);
        },
        ::testing::ExitedWithCode(1), "unknown cluster router 'typo'");
}

TEST(ClusterConfigDeath, ValidateRejectsInconsistentSettings)
{
    EXPECT_EXIT(
        {
            cluster::ClusterConfig c;
            c.numServerNodes = 0;
            c.validate();
        },
        ::testing::ExitedWithCode(1), "numServerNodes must be >= 1");
    // A crash spec naming a node outside the cluster dies at fault
    // resolution, before anything is built.
    EXPECT_EXIT(
        {
            core::ExperimentConfig cfg = clusterConfig(2, "rr");
            cfg.cluster.requestTimeout = 1;
            cfg.faults = {"crash:node=2,at=20us"};
            (void)core::runExperiment(cfg);
        },
        ::testing::ExitedWithCode(1), "crash:.*node=2.*out of range");
}

TEST(ClusterExperimentDeath, CrashWithoutRequestTimeoutDiesBeforeTheRun)
{
    // Requests routed to a crashed node are lost unless the client
    // times them out and reroutes them: without a timeout the run
    // would finish while silently dropping that traffic.
    EXPECT_EXIT(
        {
            core::ExperimentConfig cfg = clusterConfig(2, "rr");
            cfg.faults = {"crash:node=1,at=20us"};
            (void)core::runExperiment(cfg);
        },
        ::testing::ExitedWithCode(1),
        "fault 'crash:at=20us,node=1' needs a request timeout");
}

TEST(SweepConfigDeath, ValidatesThreadsAndRates)
{
    EXPECT_EXIT(
        {
            core::SweepConfig cfg;
            cfg.arrivalRates = {1e6};
            cfg.threads = 0;
            (void)core::runSweep(cfg);
        },
        ::testing::ExitedWithCode(1),
        "threads must be in \\[1, 1024\\] \\(got 0\\)");
    EXPECT_EXIT(
        {
            core::SweepConfig cfg;
            cfg.arrivalRates = {1e6};
            cfg.threads = 2000;
            (void)core::runSweep(cfg);
        },
        ::testing::ExitedWithCode(1),
        "threads must be in \\[1, 1024\\] \\(got 2000\\)");
    EXPECT_EXIT(
        {
            core::SweepConfig cfg;
            (void)core::runSweep(cfg);
        },
        ::testing::ExitedWithCode(1), "arrivalRates is empty");
    EXPECT_EXIT(
        {
            core::SweepConfig cfg;
            cfg.arrivalRates.push_back(2e6);
            cfg.arrivalRates.push_back(1e6);
            (void)core::runSweep(cfg);
        },
        ::testing::ExitedWithCode(1),
        "must be strictly ascending.*rate\\[1\\] = 1e\\+06 does not "
        "exceed rate\\[0\\] = 2e\\+06");
}

} // namespace
