/**
 * @file
 * Message trains change event counts, never results. Without a packet
 * perturber every message leaves as one train (client sends and
 * replenishes, rendezvous descriptors and read responses, server
 * replies and replenishes, the NI's rendezvous pulls); with one
 * attached — here a packet-corrupt fault with p = 0, which draws from
 * its own Rng lanes and never flips a byte — every packet travels on
 * its own events, as perturb() must see each at its own tick. The two
 * runs of one configuration must agree on every simulated field; only
 * executedEvents may differ. Trains take fewer where a message has
 * several blocks (one fabric event), and within one domain also where
 * it has one: the NI hands a train to the fabric with its departure
 * tick, so no event fires at egress, while each block of a perturbed
 * message is injected by an event of its own. Across domains a
 * one-block message costs one event either way.
 *
 * Comparisons are exact (EXPECT_EQ on doubles): both runs replay one
 * deterministic computation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiment.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

/** A perturber that never acts. */
constexpr const char *kInertPerturber = "packet-corrupt:p=0";

void
expectSameComponent(const core::ComponentStats &a,
                    const core::ComponentStats &b)
{
    EXPECT_EQ(a.meanNs, b.meanNs);
    EXPECT_EQ(a.p99Ns, b.p99Ns);
}

/** Every simulated field of two runs matches (executedEvents aside). */
void
expectSameSimulation(const core::RunStats &a, const core::RunStats &b)
{
    EXPECT_EQ(a.point.offeredRps, b.point.offeredRps);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
    EXPECT_EQ(a.point.meanNs, b.point.meanNs);
    EXPECT_EQ(a.point.p50Ns, b.point.p50Ns);
    EXPECT_EQ(a.point.p90Ns, b.point.p90Ns);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.samples, b.point.samples);
    EXPECT_EQ(a.meanServiceNs, b.meanServiceNs);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.criticalCompletions, b.criticalCompletions);
    EXPECT_EQ(a.replySlotStalls, b.replySlotStalls);
    EXPECT_EQ(a.flowControlDeferrals, b.flowControlDeferrals);
    EXPECT_EQ(a.verifyFailures, b.verifyFailures);
    EXPECT_EQ(a.simulatedUs, b.simulatedUs);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.crossDomainMail, b.crossDomainMail);
    EXPECT_EQ(a.perCoreServed, b.perCoreServed);
    EXPECT_EQ(a.recvSlotPeak, b.recvSlotPeak);
    EXPECT_EQ(a.rendezvousRequests, b.rendezvousRequests);
    EXPECT_EQ(a.preemptionYields, b.preemptionYields);
    expectSameComponent(a.breakdown.reassembly, b.breakdown.reassembly);
    expectSameComponent(a.breakdown.dispatch, b.breakdown.dispatch);
    expectSameComponent(a.breakdown.queueWait, b.breakdown.queueWait);
    expectSameComponent(a.breakdown.service, b.breakdown.service);
    ASSERT_EQ(a.perClass.size(), b.perClass.size());
    for (std::size_t i = 0; i < a.perClass.size(); ++i) {
        const core::ClassStats &x = a.perClass[i];
        const core::ClassStats &y = b.perClass[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.completions, y.completions);
        EXPECT_EQ(x.achievedRps, y.achievedRps);
        EXPECT_EQ(x.meanNs, y.meanNs);
        EXPECT_EQ(x.p50Ns, y.p50Ns);
        EXPECT_EQ(x.p99Ns, y.p99Ns);
        EXPECT_EQ(x.p999Ns, y.p999Ns);
        EXPECT_EQ(x.sloAttainment, y.sloAttainment);
    }
    ASSERT_EQ(a.perNode.size(), b.perNode.size());
    for (std::size_t i = 0; i < a.perNode.size(); ++i) {
        const core::NodeStats &x = a.perNode[i];
        const core::NodeStats &y = b.perNode[i];
        EXPECT_EQ(x.failed, y.failed);
        EXPECT_EQ(x.served, y.served);
        EXPECT_EQ(x.criticalCompletions, y.criticalCompletions);
        EXPECT_EQ(x.achievedRps, y.achievedRps);
        EXPECT_EQ(x.meanNs, y.meanNs);
        EXPECT_EQ(x.p50Ns, y.p50Ns);
        EXPECT_EQ(x.p99Ns, y.p99Ns);
        EXPECT_EQ(x.samples, y.samples);
        EXPECT_EQ(x.perCoreServed, y.perCoreServed);
    }
    EXPECT_EQ(a.requestTimeouts, b.requestTimeouts);
    EXPECT_EQ(a.failoverReroutes, b.failoverReroutes);
    EXPECT_EQ(a.staleReplies, b.staleReplies);
    EXPECT_EQ(a.nodesDown, b.nodesDown);
    EXPECT_EQ(a.nestedRpcsSent, b.nestedRpcsSent);
    EXPECT_EQ(a.chainsCompleted, b.chainsCompleted);
    EXPECT_EQ(a.fault.retries, b.fault.retries);
    EXPECT_EQ(a.fault.retryDrops, b.fault.retryDrops);
    EXPECT_EQ(a.fault.hedgesSent, b.fault.hedgesSent);
    EXPECT_EQ(a.fault.hedgesWon, b.fault.hedgesWon);
    EXPECT_EQ(a.fault.duplicateReplies, b.fault.duplicateReplies);
    EXPECT_EQ(a.fault.packetsDropped, b.fault.packetsDropped);
    EXPECT_EQ(a.fault.packetsCorrupted, b.fault.packetsCorrupted);
    EXPECT_EQ(a.fault.corruptionsDetected, b.fault.corruptionsDetected);
    EXPECT_EQ(a.fault.replySlotEvictions, b.fault.replySlotEvictions);
}

/** One configuration run both ways. */
struct Runs
{
    core::RunStats trains;
    core::RunStats perPacket;
};

/** Run @p cfg with no perturber (trains) and with an inert one
 *  (packet by packet); check the results match. */
Runs
expectTrainsChangeOnlyEvents(core::ExperimentConfig cfg)
{
    cfg.faults.clear();
    Runs r;
    r.trains = core::runExperiment(cfg);
    cfg.faults = {kInertPerturber};
    r.perPacket = core::runExperiment(cfg);
    expectSameSimulation(r.trains, r.perPacket);
    EXPECT_EQ(r.perPacket.fault.packetsCorrupted, 0u);
    return r;
}

/** 1536 B values, half writes: ~25-block requests and replies. */
core::ExperimentConfig
largeValueConfig()
{
    core::ExperimentConfig cfg;
    cfg.workload = app::WorkloadSpec("herd:value_bytes=1536,read_ratio=0.5");
    cfg.arrivalRps = 4e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 3000;
    return cfg;
}

TEST(TrainEquivalence, LargeValuesOneNode)
{
    const Runs r = expectTrainsChangeOnlyEvents(largeValueConfig());
    EXPECT_LT(r.trains.executedEvents, r.perPacket.executedEvents);
}

TEST(TrainEquivalence, TimeoutsAndHedgesTwoNodes)
{
    // A timeout shorter than a loaded round trip: requests expire and
    // get hedged while their 25-block replies are still streaming in,
    // so late and duplicate replies land on retired slots.
    core::ExperimentConfig cfg = largeValueConfig();
    cfg.arrivalRps = 8e6;
    cfg.system.seed = 5;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("rr");
    cfg.cluster.requestTimeout = sim::microseconds(1.2);
    cfg.retry.hedgeAfter = sim::microseconds(1.0);
    const Runs r = expectTrainsChangeOnlyEvents(cfg);
    EXPECT_LT(r.trains.executedEvents, r.perPacket.executedEvents);
    EXPECT_GT(r.trains.requestTimeouts, 0u);
    EXPECT_GT(r.trains.staleReplies, 0u);
    EXPECT_GT(r.trains.fault.hedgesSent, 0u);
    EXPECT_GT(r.trains.fault.duplicateReplies, 0u);
}

TEST(TrainEquivalence, FourNodesTwoDomains)
{
    // Cross-domain trains travel through the fabric's mailboxes.
    core::ExperimentConfig cfg = largeValueConfig();
    cfg.arrivalRps = 16e6;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load");
    cfg.parallelDomains = 2;
    const Runs r = expectTrainsChangeOnlyEvents(cfg);
    EXPECT_LT(r.trains.executedEvents, r.perPacket.executedEvents);
    EXPECT_GT(r.trains.crossDomainMail, 0u);
}

/** Default HERD: every request, reply and replenish is one block. */
core::ExperimentConfig
oneBlockConfig()
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 3000;
    return cfg;
}

TEST(TrainEquivalence, OneBlockMessagesOneNode)
{
    const Runs r = expectTrainsChangeOnlyEvents(oneBlockConfig());
    EXPECT_LT(r.trains.executedEvents, r.perPacket.executedEvents);
}

TEST(TrainEquivalence, OneBlockMessagesFourNodesTwoDomains)
{
    // Every one-block train crosses a domain: it is unrolled into one
    // mail entry and reaches its node as a one-packet train. Mail must
    // be posted at its departure tick, so a server's train still takes
    // a departure event, as its lone packet takes an inject event: the
    // counts are equal.
    core::ExperimentConfig cfg = oneBlockConfig();
    cfg.arrivalRps = 32e6;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load");
    cfg.parallelDomains = 2;
    const Runs r = expectTrainsChangeOnlyEvents(cfg);
    EXPECT_EQ(r.trains.executedEvents, r.perPacket.executedEvents);
    EXPECT_GT(r.trains.crossDomainMail, 0u);
}

} // namespace
