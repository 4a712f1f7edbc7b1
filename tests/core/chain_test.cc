/**
 * @file
 * End-to-end tests of nested RPC chains: a chained handler declares
 * nested RPCs through app::HandleResult.nested, the serving node
 * releases the core at fan-out and defers the reply until every child
 * completes, and the root's measured latency composes across tiers.
 * Covers 2- and 3-tier fan-out composition, determinism under a fixed
 * seed, and chains riding the cluster failover path.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "app/workload.hh"
#include "core/experiment.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

core::ExperimentConfig
chainConfig(const std::string &workload, double rps)
{
    core::ExperimentConfig cfg;
    cfg.workload = app::WorkloadSpec(workload);
    cfg.arrivalRps = rps;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 6000;
    return cfg;
}

TEST(ChainExperiment, TwoTierLatencyComposesAcrossTiers)
{
    // tiers=2, fanout=2: every root fans out into two tier-1 RPCs and
    // its reply waits for both, so the root's end-to-end latency must
    // exceed its own processing plus a full child round trip.
    const core::RunStats r = core::runExperiment(
        chainConfig("chain:tiers=2,fanout=2,root_ns=600,leaf_ns=300",
                    2e6));

    ASSERT_EQ(r.perClass.size(), 2u);
    EXPECT_EQ(r.perClass[0].name, "tier0");
    EXPECT_TRUE(r.perClass[0].latencyCritical);
    EXPECT_EQ(r.perClass[1].name, "tier1");
    EXPECT_FALSE(r.perClass[1].latencyCritical);
    EXPECT_GT(r.perClass[0].completions, 0u);
    EXPECT_GT(r.perClass[1].completions, 0u);

    // Composition: root p50 >= root processing + child p50 (the child
    // round trip includes its network hops, so strictly more).
    EXPECT_GT(r.perClass[0].p50Ns, 600.0 + r.perClass[1].p50Ns);
    // Headline tail metrics cover only the client-visible roots (the
    // headline warmup discards whole critical samples, the per-class
    // window discards by total completions, so samples <= roots).
    EXPECT_GT(r.point.samples, 0u);
    EXPECT_LE(r.point.samples, r.perClass[0].completions);

    // Every root completion closed one 2-member chain group.
    EXPECT_GT(r.chainsCompleted, 0u);
    EXPECT_GE(r.nestedRpcsSent, 2 * r.chainsCompleted);
    EXPECT_EQ(r.verifyFailures, 0u);
    // Roots are a third of the 1 + 2 tree.
    EXPECT_GT(r.completions, r.criticalCompletions);
}

TEST(ChainExperiment, ThreeTierFanoutServesWholeTree)
{
    // tiers=3, fanout=2 serves 1 + 2 + 4 = 7 RPCs per client arrival,
    // and latency composes monotonically down the chain.
    const app::RpcApplicationPtr app =
        app::WorkloadRegistry::instance().make(app::WorkloadSpec(
            "chain:tiers=3,fanout=2,root_ns=500,leaf_ns=250"));
    EXPECT_DOUBLE_EQ(app->requestsPerArrival(), 7.0);

    const core::RunStats r = core::runExperiment(
        chainConfig("chain:tiers=3,fanout=2,root_ns=500,leaf_ns=250",
                    1e6));
    ASSERT_EQ(r.perClass.size(), 3u);
    EXPECT_GT(r.perClass[0].p50Ns, r.perClass[1].p50Ns);
    EXPECT_GT(r.perClass[1].p50Ns, r.perClass[2].p50Ns);
    // A tier-1 parent is itself a chained handler: its latency also
    // composes over its tier-2 children.
    EXPECT_GT(r.perClass[1].p50Ns, 250.0 + r.perClass[2].p50Ns);
    EXPECT_GT(r.chainsCompleted, 0u);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(ChainExperiment, DeterministicUnderFixedSeed)
{
    const core::ExperimentConfig cfg = chainConfig(
        "chain:tiers=3,fanout=3,root_ns=400,leaf_ns=200", 1e6);
    const core::RunStats a = core::runExperiment(cfg);
    const core::RunStats b = core::runExperiment(cfg);
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
    EXPECT_EQ(a.nestedRpcsSent, b.nestedRpcsSent);
    EXPECT_EQ(a.chainsCompleted, b.chainsCompleted);
    ASSERT_EQ(a.perClass.size(), b.perClass.size());
    for (std::size_t i = 0; i < a.perClass.size(); ++i)
        EXPECT_EQ(a.perClass[i].p99Ns, b.perClass[i].p99Ns);
}

TEST(ChainExperiment, ChainsSurviveClusterFailover)
{
    // A node dies mid-run under a chained workload: nested RPCs to the
    // victim time out and reroute (keeping their chain group), roots
    // whose parent was on the victim time out and re-issue, and the
    // run still reaches its completion target with verified replies.
    core::ExperimentConfig cfg = chainConfig(
        "chain:tiers=2,fanout=2,root_ns=600,leaf_ns=300", 6e6);
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("rr");
    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.cluster.failThreshold = 3;
    cfg.faults = {"crash:node=2,at=40us"};

    const core::RunStats r = core::runExperiment(cfg);
    ASSERT_EQ(r.perNode.size(), 4u);
    EXPECT_TRUE(r.perNode[2].failed);
    EXPECT_GE(r.nodesDown, 1u);
    EXPECT_GT(r.requestTimeouts, 0u);
    EXPECT_GT(r.failoverReroutes, 0u);
    EXPECT_EQ(r.completions, 6500u);
    EXPECT_GT(r.chainsCompleted, 0u);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(ChainExperiment, SingleHopChainAddsNoNesting)
{
    // tiers=1 is an ordinary workload: no nested RPCs, no chains.
    const core::RunStats r = core::runExperiment(
        chainConfig("chain:tiers=1,fanout=4,root_ns=500", 5e6));
    EXPECT_EQ(r.nestedRpcsSent, 0u);
    EXPECT_EQ(r.chainsCompleted, 0u);
    ASSERT_EQ(r.perClass.size(), 1u);
    EXPECT_EQ(r.completions, r.criticalCompletions);
}

TEST(ChainDeath, OutOfRangeChainParamsDieAtConstruction)
{
    EXPECT_EXIT((void)app::WorkloadRegistry::instance().make(
                    app::WorkloadSpec("chain:tiers=0")),
                ::testing::ExitedWithCode(1),
                "tiers must be in \\[1, 8\\]");
    // tiers=6, fanout=4 would serve 1365 RPCs per arrival — past the
    // 1024-per-tree sanity cap.
    EXPECT_EXIT((void)app::WorkloadRegistry::instance().make(
                    app::WorkloadSpec("chain:tiers=6,fanout=4")),
                ::testing::ExitedWithCode(1), "RPCs per ");
}

} // namespace
