/**
 * @file
 * Connection-report bit-identity lock: fixed-seed runs under a named
 * client population must reproduce these exact conn-report numbers —
 * the client-observed p99s (by admission kind and per group), the mean
 * admission wait, the servers' QP-cache hits and misses, and the
 * scheduler's switch and warmup counters.
 *
 * RecoveryIdentity locks the grouped paths' event counts and headline
 * tails under faults; the runs here are fault-free and pin the
 * ConnStats summaries those goldens leave open. One run is a grouped
 * population whose slices rotate (deferrals, warmup pre-admissions and
 * group switches all fire); the other is an ungrouped population
 * thrashing a small QP cache.
 *
 * Comparisons are exact (EXPECT_EQ on doubles): these are replays of
 * a deterministic computation, not statistical estimates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "conn/conn.hh"
#include "core/experiment.hh"

namespace {

using namespace rpcvalet;

/** The locked conn report of one run. */
struct Golden
{
    std::uint64_t executedEvents;
    double p99Ns;
    double activeP99Ns;
    double inactiveP99Ns;
    std::vector<double> perGroupP99Ns;
    double meanDeferredWaitNs;
    std::uint64_t qpHits;
    std::uint64_t qpMisses;
    std::uint64_t groupSwitches;
    std::uint64_t warmupHits;
};

core::ExperimentConfig
connConfig(const char *connections)
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 8e6;
    cfg.warmupRpcs = 200;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = 42;
    cfg.connections = conn::parseConnConfig(connections);
    return cfg;
}

void
expectGolden(const core::RunStats &r, const Golden &g)
{
    EXPECT_EQ(r.executedEvents, g.executedEvents);
    EXPECT_EQ(r.point.p99Ns, g.p99Ns);
    EXPECT_EQ(r.conn.activeP99Ns, g.activeP99Ns);
    EXPECT_EQ(r.conn.inactiveP99Ns, g.inactiveP99Ns);
    EXPECT_EQ(r.conn.perGroupP99Ns, g.perGroupP99Ns);
    EXPECT_EQ(r.conn.meanDeferredWaitNs, g.meanDeferredWaitNs);
    EXPECT_EQ(r.conn.qpHits, g.qpHits);
    EXPECT_EQ(r.conn.qpMisses, g.qpMisses);
    EXPECT_EQ(r.conn.groupSwitches, g.groupSwitches);
    EXPECT_EQ(r.conn.warmupHits, g.warmupHits);
}

TEST(ConnIdentity, GroupedSlicesRotate)
{
    const core::RunStats r =
        core::runExperiment(connConfig("grouped:clients=256,size=40,"
                                       "slice=20us"));
    expectGolden(r, Golden{55830u, 8915.2829999999994, 3542.6370000000002,
                           126001.518,
                           {125197.47500000001, 125511.489,
                            125860.81600000001, 125884.78, 126366.022,
                            125739.58, 123143.856},
                           60110.032342674705, 2403u, 835u, 23u, 787u});
    // Every locked path must actually have run, or the lock is vacuous.
    EXPECT_GT(r.conn.deferredTotal, 0u);
    EXPECT_GT(r.conn.groupSwitches, 0u);
    EXPECT_GT(r.conn.warmupHits, 0u);
}

TEST(ConnIdentity, AllThrashesABoundedQpCache)
{
    const core::RunStats r =
        core::runExperiment(connConfig("all:clients=512,qp_capacity=64"));
    expectGolden(r, Golden{61496u, 155367.92600000001, 155404.97500000001,
                           0.0, {155404.97500000001}, 0.0, 507u, 3795u,
                           0u, 0u});
    EXPECT_GT(r.conn.qpMisses, 0u);
    EXPECT_EQ(r.conn.deferredTotal, 0u);
}

} // namespace
