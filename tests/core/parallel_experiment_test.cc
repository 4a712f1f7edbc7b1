/**
 * @file
 * Determinism contract of the parallel-domain (conservative PDES)
 * experiment path: an N-domain cluster run must produce bit-identical
 * RunStats — executed events, completions, latency doubles, per-class
 * tails, per-node counters — no matter how many window workers execute
 * the domains, across seeds and routers. Plus the guard rails: the
 * lookahead invariant on the parallel fabric and the chained-workload
 * rejection.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/experiment.hh"
#include "net/fabric.hh"
#include "sim/domain.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

core::ExperimentConfig
clusterConfig(std::uint64_t seed, const std::string &router)
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 40e6; // ~0.35 of 4-node herd capacity
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = seed;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse(router);
    return cfg;
}

/**
 * Full bit-identity over everything a worker-count change could
 * plausibly perturb. EXPECT_EQ on doubles is deliberate: the harvest
 * walks the per-node sample logs in node order, so even the
 * floating-point reductions must match to the last bit.
 */
void
expectBitIdentical(const core::RunStats &a, const core::RunStats &b)
{
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.criticalCompletions, b.criticalCompletions);
    EXPECT_EQ(a.point.samples, b.point.samples);
    EXPECT_EQ(a.point.p50Ns, b.point.p50Ns);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.p90Ns, b.point.p90Ns);
    EXPECT_EQ(a.point.meanNs, b.point.meanNs);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
    EXPECT_EQ(a.meanServiceNs, b.meanServiceNs);
    EXPECT_EQ(a.simulatedUs, b.simulatedUs);
    EXPECT_EQ(a.verifyFailures, b.verifyFailures);
    EXPECT_EQ(a.replySlotStalls, b.replySlotStalls);
    EXPECT_EQ(a.perCoreServed, b.perCoreServed);
    ASSERT_EQ(a.perClass.size(), b.perClass.size());
    for (std::size_t i = 0; i < a.perClass.size(); ++i) {
        EXPECT_EQ(a.perClass[i].name, b.perClass[i].name);
        EXPECT_EQ(a.perClass[i].completions, b.perClass[i].completions);
        EXPECT_EQ(a.perClass[i].p50Ns, b.perClass[i].p50Ns);
        EXPECT_EQ(a.perClass[i].p99Ns, b.perClass[i].p99Ns);
        EXPECT_EQ(a.perClass[i].p999Ns, b.perClass[i].p999Ns);
    }
    ASSERT_EQ(a.perNode.size(), b.perNode.size());
    for (std::size_t i = 0; i < a.perNode.size(); ++i) {
        EXPECT_EQ(a.perNode[i].served, b.perNode[i].served);
        EXPECT_EQ(a.perNode[i].failed, b.perNode[i].failed);
    }
}

core::RunStats
runWith(core::ExperimentConfig cfg, unsigned workers)
{
    cfg.parallelDomains = workers;
    return core::runExperiment(cfg);
}

TEST(ParallelExperiment, WorkerCountNeverChangesResults)
{
    // The heart of the PDES contract: domain decomposition fixes the
    // event schedule; the worker pool only changes who executes it.
    // 1, 2 and 4 workers over the same 5-domain run (client + 4
    // nodes) must agree bit for bit, for every seed.
    for (const std::uint64_t seed : {42ull, 7ull, 1234567ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const core::ExperimentConfig cfg = clusterConfig(seed, "shard");
        const core::RunStats w1 = runWith(cfg, 1);
        const core::RunStats w2 = runWith(cfg, 2);
        const core::RunStats w4 = runWith(cfg, 4);
        expectBitIdentical(w1, w2);
        expectBitIdentical(w1, w4);
        // The parallel stop is barrier-quantized: the run halts at
        // the first window boundary at or past the target, so a
        // couple of extra completions can slip in.
        EXPECT_GE(w1.completions, 3500u);
        EXPECT_EQ(w1.verifyFailures, 0u);
    }
}

TEST(ParallelExperiment, HoldsAcrossRouters)
{
    // Router choice changes which domain each RPC crosses into, not
    // the determinism of the crossing.
    for (const std::string &router :
         {std::string("rr"), std::string("bounded-load:c=1.25")}) {
        SCOPED_TRACE(router);
        const core::ExperimentConfig cfg = clusterConfig(99, router);
        expectBitIdentical(runWith(cfg, 1), runWith(cfg, 4));
    }
}

TEST(ParallelExperiment, ParallelRunsAreRerunnable)
{
    // Same config, same worker count, fresh run: nothing leaks
    // between runs (per-domain wheels and mailboxes are rebuilt from
    // scratch each call).
    const core::ExperimentConfig cfg = clusterConfig(42, "shard");
    expectBitIdentical(runWith(cfg, 4), runWith(cfg, 4));
}

TEST(ParallelExperiment, SingleNodeClusterRunsParallelToo)
{
    // parallelDomains > 0 forces the domain-decomposed path even for
    // one server node (client domain + node domain): the degenerate
    // 2-domain case must obey the same contract.
    core::ExperimentConfig cfg = clusterConfig(42, "direct");
    cfg.cluster.numServerNodes = 1;
    cfg.arrivalRps = 10e6;
    const core::RunStats w1 = runWith(cfg, 1);
    const core::RunStats w2 = runWith(cfg, 2);
    expectBitIdentical(w1, w2);
    ASSERT_EQ(w1.perNode.size(), 1u);
    EXPECT_EQ(w1.perNode[0].served, w1.completions);
}

// ----- guard rails -----

void
buildParallelFabric(sim::Tick latency, sim::Tick lookahead)
{
    sim::EventDomain client(0, "client");
    sim::EventDomain server(1, "server");
    std::vector<sim::EventDomain *> domains{&client, &server};
    net::Fabric fabric(domains, latency, lookahead);
}

TEST(ParallelExperimentDeath, FabricRejectsLookaheadAboveLatency)
{
    // A lookahead wider than the link latency would let a message
    // sent late in a window be due inside the same window — an event
    // in the past for a domain that already ran ahead. The parallel
    // fabric must refuse to be built rather than silently reorder.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(buildParallelFabric(/*latency=*/100, /*lookahead=*/101),
                ::testing::ExitedWithCode(1), "violates conservative");
    EXPECT_EXIT(buildParallelFabric(/*latency=*/100, /*lookahead=*/0),
                ::testing::ExitedWithCode(1), "violates conservative");
}

TEST(ParallelExperimentDeath, ChainedWorkloadsRejected)
{
    // Nested-RPC chains route replies through the issuer on the
    // client wheel mid-window; until that protocol is windowed they
    // must refuse parallel mode instead of deadlocking a barrier.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            core::ExperimentConfig cfg = clusterConfig(42, "rr");
            cfg.workload = app::WorkloadSpec(
                "chain:tiers=2,fanout=2,root_ns=600,leaf_ns=300");
            cfg.parallelDomains = 2;
            (void)core::runExperiment(cfg);
        },
        ::testing::ExitedWithCode(1), "nested RPC chains");
}

} // namespace
