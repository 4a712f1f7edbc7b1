/**
 * @file
 * Client recovery bit-identity lock: fixed-seed runs that drive the
 * traffic generator's timeout, retry, hedge, held-credit, connection
 * and chain paths must reproduce these exact numbers across rewrites
 * of the generator's in-flight bookkeeping.
 *
 * KernelIdentity locks the fault-free default path; the runs here
 * each use a request timeout, so every recovery branch (timeouts
 * retried inline or after a backoff, connection-tagged re-admission,
 * hedge races, stale and duplicate replies, rendezvous pulls for
 * dead requests, chain members rerouted off a crashed node) feeds the
 * event count and the tails. Any divergence means the generator
 * changed simulation behaviour, not just its data structures.
 *
 * Comparisons are exact (EXPECT_EQ on doubles): these are replays of
 * a deterministic computation, not statistical estimates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "conn/conn.hh"
#include "core/experiment.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

/** The locked fingerprint of one run. */
struct Golden
{
    std::uint64_t executedEvents;
    std::uint64_t completions;
    double p50Ns;
    double p99Ns;
    std::uint64_t requestTimeouts;
    std::uint64_t failoverReroutes;
    std::uint64_t staleReplies;
    std::uint64_t retries;
    std::uint64_t retryDrops;
    std::uint64_t hedgesSent;
    std::uint64_t hedgesWon;
    std::uint64_t duplicateReplies;
    std::uint64_t connDeferred;
    std::uint64_t chainsCompleted;
};

void
expectGolden(const core::RunStats &r, const Golden &g)
{
    EXPECT_EQ(r.executedEvents, g.executedEvents);
    EXPECT_EQ(r.completions, g.completions);
    EXPECT_EQ(r.point.p50Ns, g.p50Ns);
    EXPECT_EQ(r.point.p99Ns, g.p99Ns);
    EXPECT_EQ(r.requestTimeouts, g.requestTimeouts);
    EXPECT_EQ(r.failoverReroutes, g.failoverReroutes);
    EXPECT_EQ(r.staleReplies, g.staleReplies);
    EXPECT_EQ(r.fault.retries, g.retries);
    EXPECT_EQ(r.fault.retryDrops, g.retryDrops);
    EXPECT_EQ(r.fault.hedgesSent, g.hedgesSent);
    EXPECT_EQ(r.fault.hedgesWon, g.hedgesWon);
    EXPECT_EQ(r.fault.duplicateReplies, g.duplicateReplies);
    EXPECT_EQ(r.conn.deferredTotal, g.connDeferred);
    EXPECT_EQ(r.chainsCompleted, g.chainsCompleted);
    EXPECT_EQ(r.verifyFailures, 0u);
    // The recovery machinery must actually have run, or the lock is
    // vacuous.
    EXPECT_GT(r.requestTimeouts, 0u);
}

TEST(RecoveryIdentity, ChaosRetryBackoffJitterAndHedges)
{
    // Four nodes, loss + delay + a crash, retries after a jittered
    // exponential backoff, and hedges: the non-connection retry path
    // that schedules its resubmission.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 40e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = 7;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load:c=1.25");
    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.cluster.failThreshold = 3;
    cfg.cluster.recoveryAfter = sim::microseconds(200.0);
    cfg.faults = {"crash:node=3,at=30us,recover_after=100us",
                  "packet-loss:p=0.005",
                  "packet-delay:add=200ns,jitter=100ns"};
    cfg.retry.maxAttempts = 6;
    cfg.retry.baseBackoff = sim::microseconds(5.0);
    cfg.retry.multiplier = 2.0;
    cfg.retry.jitter = 0.2;
    cfg.retry.hedgeAfter = sim::microseconds(20.0);
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{67021u, 3500u, 523.91999999999996,
                           1171.2660000000001, 8u, 4u, 0u, 4u, 0u, 72u, 67u,
                           0u, 0u, 0u});
    EXPECT_GT(r.fault.hedgesSent, 0u);
}

TEST(RecoveryIdentity, GroupedConnectionsWithTimeout)
{
    // A grouped client population behind two nodes under packet loss:
    // timed-out connection-tagged requests re-enter admission inline
    // (no backoff), and lost replies park their slot credits.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 20e6;
    cfg.warmupRpcs = 200;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = 11;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("shard");
    cfg.cluster.requestTimeout = sim::microseconds(25.0);
    cfg.faults = {"packet-loss:p=0.01"};
    cfg.connections =
        conn::parseConnConfig("grouped:clients=512,size=40,slice=20us");
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{93280u, 3200u, 1669.0219999999999,
                           6136.7539999999999, 82u, 82u, 17u, 82u, 0u, 0u,
                           0u, 0u, 7179u, 0u});
    EXPECT_GT(r.conn.deferredTotal, 0u);
}

TEST(RecoveryIdentity, GroupedConnectionsBackoffAndHedges)
{
    // The same population with a backoff and hedging: connection-
    // tagged retries are scheduled, and hedges inherit the primary's
    // connection identity.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 20e6;
    cfg.warmupRpcs = 200;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = 13;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load");
    cfg.cluster.requestTimeout = sim::microseconds(25.0);
    cfg.cluster.failThreshold = 2;
    cfg.faults = {"crash:node=1,at=40us,recover_after=60us",
                  "packet-loss:p=0.01",
                  "packet-delay:add=300ns,jitter=200ns"};
    cfg.retry.baseBackoff = sim::microseconds(2.0);
    cfg.retry.hedgeAfter = sim::microseconds(15.0);
    cfg.connections =
        conn::parseConnConfig("grouped:clients=256,size=64,slice=15us");
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{93735u, 3200u, 3014.3240000000001, 15462.813,
                           76u, 18u, 7u, 18u, 0u, 176u, 118u, 11u, 3892u,
                           0u});
    EXPECT_GT(r.fault.hedgesSent, 0u);
}

TEST(RecoveryIdentity, GroupSwitchOnTimeoutUnderLoadAwareRouting)
{
    // Small groups with short slices over four nodes behind a tight
    // load-aware router, under heavy loss: a draining group's last
    // request often times out, and its retirement completes the
    // switch, whose admitted requests are routed on the per-server
    // in-flight counts at that instant (the timed-out request still
    // among them).
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 30e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 4000;
    cfg.system.seed = 1;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load:c=1.05");
    cfg.cluster.requestTimeout = sim::microseconds(15.0);
    cfg.cluster.failThreshold = 3;
    cfg.cluster.recoveryAfter = sim::microseconds(100.0);
    cfg.faults = {"packet-loss:p=0.02",
                  "crash:node=2,at=60us,recover_after=100us"};
    cfg.retry.maxAttempts = 5;
    cfg.retry.hedgeAfter = sim::microseconds(10.0);
    cfg.connections =
        conn::parseConnConfig("grouped:clients=256,size=16,slice=5us");
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{112815u, 4500u, 573.94399999999996,
                           3486.0970000000002, 28u, 14u, 2u, 14u, 0u, 201u,
                           187u, 13u, 10937u, 0u});
    EXPECT_GT(r.conn.deferredTotal, 0u);
}

TEST(RecoveryIdentity, ChainWorkloadWithTimeout)
{
    // Nested chains over four nodes while one crashes and packets
    // drop: chain members time out and reroute inline, keeping their
    // group.
    core::ExperimentConfig cfg;
    cfg.workload = app::WorkloadSpec(
        "chain:tiers=2,fanout=2,root_ns=600,leaf_ns=300");
    cfg.arrivalRps = 6e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 4000;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("rr");
    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.cluster.failThreshold = 3;
    cfg.faults = {"crash:node=2,at=40us", "packet-loss:p=0.002"};
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{94699u, 4500u, 2132.0, 68928.0, 1600u, 1600u,
                           498u, 1600u, 0u, 0u, 0u, 0u, 0u, 1426u});
    EXPECT_GT(r.chainsCompleted, 0u);
}

TEST(RecoveryIdentity, RendezvousPullsUnderLoss)
{
    // Oversized requests take the rendezvous pull path; under loss a
    // pull can arrive for a request that already timed out.
    core::ExperimentConfig cfg;
    cfg.workload = app::WorkloadSpec("synthetic:dist=fixed,padding=4000");
    cfg.arrivalRps = 6e6;
    cfg.warmupRpcs = 200;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = 5;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("random");
    cfg.cluster.requestTimeout = sim::microseconds(20.0);
    cfg.faults = {"packet-loss:p=0.01"};
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{699219u, 3200u, 1280.0, 42425.430999999997,
                           527u, 527u, 266u, 527u, 0u, 0u, 0u, 0u, 0u, 0u});
    EXPECT_GT(r.rendezvousRequests, 0u);
}

} // namespace
