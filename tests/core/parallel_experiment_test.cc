/**
 * @file
 * Determinism contract of the parallel-domain (conservative PDES)
 * experiment path: an N-domain cluster run must produce bit-identical
 * RunStats — executed events, completions, latency doubles, per-class
 * tails, per-node counters — no matter how many window workers execute
 * the domains, across seeds and routers; goldens for time-dependent
 * arrival processes on the parallel path. Plus the guard rails: a
 * zero-latency (zero-window) multi-domain fabric and the
 * chained-workload rejection.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.crossDomainMail, b.crossDomainMail);
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
    // event schedule; the worker pool's owner map only changes who
    // executes it. 1 to 5 workers over the same 5-domain run (client
    // + 4 nodes) — 3 deal the nodes unevenly, 5 give every domain a
    // worker of its own — must agree bit for bit, for every seed.
    for (const std::uint64_t seed : {42ull, 7ull, 1234567ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const core::ExperimentConfig cfg = clusterConfig(seed, "shard");
        const core::RunStats w1 = runWith(cfg, 1);
        for (const unsigned workers : {2u, 3u, 4u, 5u}) {
            SCOPED_TRACE("workers " + std::to_string(workers));
            expectBitIdentical(w1, runWith(cfg, workers));
        }
        // The parallel stop is barrier-quantized: the run halts at
        // the first window boundary at or past the target, so a
        // couple of extra completions can slip in.
        EXPECT_GE(w1.completions, 3500u);
        EXPECT_EQ(w1.verifyFailures, 0u);
    }
}

TEST(ParallelExperiment, EngineCountersCountWindowsAndCrossDomainMail)
{
    // Every request crosses from the client domain to a node domain
    // and every reply back, so the mail is at least two packets per
    // completion. The windows tile the simulated time, one link
    // latency each, the run stopping inside the last one. Neither
    // counter exists on the sequential path.
    const core::ExperimentConfig cfg = clusterConfig(42, "shard");
    const core::RunStats par = runWith(cfg, 2);
    EXPECT_GE(par.crossDomainMail, 2 * par.completions);
    const double windowUs = sim::toUs(cfg.system.fabricLatency);
    const double spanUs = static_cast<double>(par.windows) * windowUs;
    EXPECT_NEAR(spanUs, par.simulatedUs, windowUs);

    const core::RunStats seq = runWith(cfg, 0);
    EXPECT_EQ(seq.windows, 0u);
    EXPECT_EQ(seq.crossDomainMail, 0u);
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

// ----- time-dependent arrivals on the parallel path -----

/** The locked fingerprint of one parallel run. */
struct ArrivalGolden
{
    std::uint64_t executedEvents;
    std::uint64_t completions;
    double meanNs;
    double p50Ns;
    double p99Ns;
};

/**
 * Two nodes, two domains, round-robin, under @p arrival. Unlike
 * Poisson, these processes read the arrival time they are handed, so
 * the goldens also lock which time the client domain hands the
 * process at each draw.
 */
void
expectArrivalGolden(const std::string &arrival, const ArrivalGolden &g)
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 20e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 4000;
    cfg.system.seed = 3;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("rr");
    cfg.arrival = net::ArrivalSpec::parse(arrival);
    cfg.parallelDomains = 2;
    const core::RunStats r = core::runExperiment(cfg);
    EXPECT_EQ(r.executedEvents, g.executedEvents);
    EXPECT_EQ(r.completions, g.completions);
    EXPECT_EQ(r.point.meanNs, g.meanNs);
    EXPECT_EQ(r.point.p50Ns, g.p50Ns);
    EXPECT_EQ(r.point.p99Ns, g.p99Ns);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(ParallelArrivalIdentity, Mmpp2TwoNodesTwoDomains)
{
    const ArrivalGolden g{85558u, 4502u, 6416.1045694652676,
                          4741.2299999999996, 18126.82};
    expectArrivalGolden("mmpp2:burst=0.1,ratio=10", g);
}

TEST(ParallelArrivalIdentity, RampTwoNodesTwoDomains)
{
    const ArrivalGolden g{85608u, 4501u, 552.08135216195956, 520.505,
                          1083.0550000000001};
    expectArrivalGolden("ramp:from=0.5,to=1.5,over=200us", g);
}

// ----- guard rails -----

void
buildTwoDomainFabric(sim::Tick latency)
{
    sim::EventDomain client(0, "client");
    sim::EventDomain server(1, "server");
    std::vector<sim::EventDomain *> domains{&client, &server};
    net::Fabric fabric(domains, latency);
}

TEST(ParallelExperimentDeath, FabricRejectsZeroLatencyAcrossDomains)
{
    // The synchronization window is the link latency. At latency 0 a
    // message sent in a window would be due inside that same window —
    // an event in the past for a domain that already ran ahead. A
    // multi-domain fabric must refuse to be built rather than
    // silently reorder.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(buildTwoDomainFabric(/*latency=*/0),
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
