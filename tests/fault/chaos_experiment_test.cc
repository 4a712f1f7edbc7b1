/**
 * @file
 * Determinism contract of chaos runs: a cluster experiment with three
 * concurrent fault models (crash + packet-loss + packet-delay), an
 * active retry/hedge policy, and failover enabled must be bit-identical
 * run-to-run and across parallel worker counts — including every
 * fault counter and the activation log — and a timed fault at t = 0
 * fires identically under every worker count. Plus the guard rail
 * that packet loss without a request timeout refuses to run at all.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiment.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

core::ExperimentConfig
chaosConfig(std::uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 40e6; // ~0.35 of 4-node herd capacity
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = seed;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load:c=1.25");
    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.cluster.failThreshold = 3;
    cfg.cluster.recoveryAfter = sim::microseconds(200.0);
    // Three concurrent fault models: a timed crash (fires ~1/3 into
    // the run), run-wide loss, and run-wide delay jitter.
    cfg.faults = {"crash:node=3,at=30us,recover_after=100us",
                  "packet-loss:p=0.005",
                  "packet-delay:add=200ns,jitter=100ns"};
    cfg.retry.maxAttempts = 6;
    cfg.retry.baseBackoff = sim::microseconds(5.0);
    cfg.retry.multiplier = 2.0;
    cfg.retry.jitter = 0.2;
    cfg.retry.hedgeAfter = sim::microseconds(20.0);
    return cfg;
}

/**
 * Bit-identity over everything chaos machinery could plausibly
 * perturb: the fault block (every counter and the activation log) on
 * top of the usual kernel fingerprint, tails, and per-node counters.
 * EXPECT_EQ on doubles is deliberate — the harvest walks the node
 * sample logs in a fixed order, so even floating-point reductions
 * must match exactly.
 */
void
expectBitIdentical(const core::RunStats &a, const core::RunStats &b)
{
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.point.samples, b.point.samples);
    EXPECT_EQ(a.point.p50Ns, b.point.p50Ns);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.meanNs, b.point.meanNs);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
    EXPECT_EQ(a.simulatedUs, b.simulatedUs);
    EXPECT_EQ(a.verifyFailures, b.verifyFailures);
    EXPECT_EQ(a.perCoreServed, b.perCoreServed);
    EXPECT_EQ(a.requestTimeouts, b.requestTimeouts);
    EXPECT_EQ(a.failoverReroutes, b.failoverReroutes);
    EXPECT_EQ(a.staleReplies, b.staleReplies);
    EXPECT_EQ(a.nodesDown, b.nodesDown);
    ASSERT_EQ(a.perNode.size(), b.perNode.size());
    for (std::size_t i = 0; i < a.perNode.size(); ++i) {
        EXPECT_EQ(a.perNode[i].served, b.perNode[i].served);
        EXPECT_EQ(a.perNode[i].failed, b.perNode[i].failed);
    }
    // The fault block, counter by counter.
    EXPECT_EQ(a.fault.retries, b.fault.retries);
    EXPECT_EQ(a.fault.retryDrops, b.fault.retryDrops);
    EXPECT_EQ(a.fault.hedgesSent, b.fault.hedgesSent);
    EXPECT_EQ(a.fault.hedgesWon, b.fault.hedgesWon);
    EXPECT_EQ(a.fault.duplicateReplies, b.fault.duplicateReplies);
    EXPECT_EQ(a.fault.packetsDropped, b.fault.packetsDropped);
    EXPECT_EQ(a.fault.packetsDelayed, b.fault.packetsDelayed);
    EXPECT_EQ(a.fault.packetsCorrupted, b.fault.packetsCorrupted);
    EXPECT_EQ(a.fault.corruptionsDetected, b.fault.corruptionsDetected);
    EXPECT_EQ(a.fault.replySlotEvictions, b.fault.replySlotEvictions);
    EXPECT_EQ(a.fault.degradedP99Ns, b.fault.degradedP99Ns);
    EXPECT_EQ(a.fault.degradedSamples, b.fault.degradedSamples);
    EXPECT_EQ(a.fault.healthyP99Ns, b.fault.healthyP99Ns);
    EXPECT_EQ(a.fault.healthySamples, b.fault.healthySamples);
    ASSERT_EQ(a.fault.activations.size(), b.fault.activations.size());
    for (std::size_t i = 0; i < a.fault.activations.size(); ++i)
        EXPECT_EQ(a.fault.activations[i], b.fault.activations[i]);
}

core::RunStats
runWith(core::ExperimentConfig cfg, unsigned workers)
{
    cfg.parallelDomains = workers;
    return core::runExperiment(cfg);
}

TEST(ChaosExperiment, SequentialRerunsAreBitIdentical)
{
    // Same scenario, same seed, fresh run: all fault state (packet
    // Rng lanes, held credits, reply-slot leases) rebuilds from
    // scratch, so nothing may leak between runs.
    const core::ExperimentConfig cfg = chaosConfig(7);
    const core::RunStats a = core::runExperiment(cfg);
    const core::RunStats b = core::runExperiment(cfg);
    expectBitIdentical(a, b);
    // The chaos must actually have happened, or the lock is vacuous.
    EXPECT_GT(a.fault.packetsDropped, 0u);
    EXPECT_GT(a.fault.packetsDelayed, 0u);
    EXPECT_GT(a.requestTimeouts, 0u);
    ASSERT_EQ(a.fault.activations.size(), 3u);
    EXPECT_EQ(a.fault.activations[0].kind, "packet-loss");
    EXPECT_EQ(a.fault.activations[1].kind, "packet-delay");
    EXPECT_EQ(a.fault.activations[2].kind, "crash");
    EXPECT_EQ(a.verifyFailures, 0u);
}

TEST(ChaosExperiment, WorkerCountNeverChangesResults)
{
    // The PDES contract survives fault injection: per-domain fault
    // Rng lanes and barrier-armed timed faults fix the event
    // schedule; the worker pool only changes who executes it.
    for (const std::uint64_t seed : {7ull, 42ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const core::ExperimentConfig cfg = chaosConfig(seed);
        const core::RunStats w1 = runWith(cfg, 1);
        const core::RunStats w2 = runWith(cfg, 2);
        const core::RunStats w4 = runWith(cfg, 4);
        expectBitIdentical(w1, w2);
        expectBitIdentical(w1, w4);
        EXPECT_GT(w1.fault.packetsDropped, 0u);
        EXPECT_EQ(w1.verifyFailures, 0u);
    }
}

TEST(ChaosExperiment, TimedFaultsAtZeroMatchAcrossWorkerCounts)
{
    // A timed fault is a plain event on its victim's wheel, armed
    // before the run starts, and window 0 opens at t = 0: a fault at
    // t = 0 fires inside the first window under every worker count.
    core::ExperimentConfig base = chaosConfig(7);
    base.faults.clear();
    const core::RunStats clean = runWith(base, 1);
    for (const char *spec :
         {"crash:node=1,at=0,recover_after=50us",
          "ni-stall:node=2,at=0,for=20us",
          "slow-core:node=0,core=3,factor=4,at=0,for=30us"}) {
        SCOPED_TRACE(spec);
        core::ExperimentConfig cfg = base;
        cfg.faults = {spec};
        const core::RunStats w1 = runWith(cfg, 1);
        const core::RunStats w2 = runWith(cfg, 2);
        const core::RunStats w4 = runWith(cfg, 4);
        expectBitIdentical(w1, w2);
        expectBitIdentical(w1, w4);
        ASSERT_EQ(w1.fault.activations.size(), 1u);
        EXPECT_EQ(w1.fault.activations[0].at, 0u);
        // The fault fired: the run differs from the fault-free one.
        EXPECT_NE(w1.executedEvents, clean.executedEvents);
        EXPECT_EQ(w1.verifyFailures, 0u);
    }
}

TEST(ChaosExperiment, ActivationLogIdenticalAcrossExecutionModes)
{
    // Sequential and parallel runs quantize the measurement window
    // differently (per-completion vs per-barrier), so their full
    // stats legitimately differ — but the resolved activation
    // timeline is static configuration and must be identical.
    const core::ExperimentConfig cfg = chaosConfig(7);
    const core::RunStats seq = core::runExperiment(cfg);
    const core::RunStats par = runWith(cfg, 2);
    ASSERT_EQ(seq.fault.activations.size(),
              par.fault.activations.size());
    for (std::size_t i = 0; i < seq.fault.activations.size(); ++i) {
        EXPECT_EQ(seq.fault.activations[i], par.fault.activations[i]);
        EXPECT_EQ(seq.fault.activations[i].describe(),
                  par.fault.activations[i].describe());
    }
}

TEST(ChaosExperiment, DegradedAndHealthySplitPartitionsThePoint)
{
    // Every measured critical RPC completed either inside the timed
    // crash's window or outside it, so the two halves of the split
    // add up to the headline point in both execution modes — and the
    // per-node samples and per-class completions count the same RPCs.
    const core::ExperimentConfig cfg = chaosConfig(7);
    for (const unsigned workers : {0u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        const core::RunStats r = runWith(cfg, workers);
        EXPECT_GT(r.fault.degradedSamples, 0u);
        EXPECT_GT(r.fault.healthySamples, 0u);
        EXPECT_EQ(r.fault.degradedSamples + r.fault.healthySamples,
                  r.point.samples);
        std::uint64_t node_samples = 0;
        for (const core::NodeStats &n : r.perNode)
            node_samples += n.samples;
        std::uint64_t class_completions = 0;
        for (const core::ClassStats &c : r.perClass)
            class_completions += c.completions;
        EXPECT_EQ(node_samples, class_completions);
    }
}

TEST(ChaosExperimentDeath, PacketLossWithoutTimeoutRefusesToRun)
{
    // A dropped request or reply is only ever recovered by the
    // client's timeout-driven retry; without a timeout the run would
    // hang short of its completion target.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            core::ExperimentConfig cfg = chaosConfig(7);
            cfg.faults = {"packet-loss:p=0.01"};
            cfg.cluster.requestTimeout = 0;
            cfg.retry = fault::RetryPolicy{};
            (void)core::runExperiment(cfg);
        },
        ::testing::ExitedWithCode(1),
        "packet-loss faults need a request timeout");
}

} // namespace
