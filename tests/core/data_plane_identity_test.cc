/**
 * @file
 * Data-plane bit-identity lock: fixed-seed runs whose requests and
 * replies span many 64 B packets must reproduce these exact numbers
 * across rewrites of the packet representation, packetization and
 * reassembly.
 *
 * KernelIdentity locks one-block HERD messages; the runs here carry
 * 1536 B values, so a write request and a read reply are ~25 blocks.
 * They cover one node, two nodes with in-flight reply corruption
 * (the packet-corrupt fault flips a payload byte the client's reply
 * verification must catch), and four nodes on the parallel kernel,
 * whose cross-domain packets cross window barriers through the
 * fabric's sorted mailboxes and batched delivery. Any divergence
 * means the data plane changed simulation behaviour, not just its
 * representation.
 *
 * Comparisons are exact (EXPECT_EQ on doubles): these are replays of
 * a deterministic computation, not statistical estimates.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiment.hh"

namespace {

using namespace rpcvalet;

/** The locked fingerprint of one run. */
struct Golden
{
    std::uint64_t executedEvents;
    std::uint64_t completions;
    double p50Ns;
    double p99Ns;
    double achievedRps;
};

void
expectGolden(const core::RunStats &r, const Golden &g)
{
    EXPECT_EQ(r.executedEvents, g.executedEvents);
    EXPECT_EQ(r.completions, g.completions);
    EXPECT_EQ(r.point.p50Ns, g.p50Ns);
    EXPECT_EQ(r.point.p99Ns, g.p99Ns);
    EXPECT_EQ(r.point.achievedRps, g.achievedRps);
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

TEST(DataPlaneIdentity, LargeValuesOneNode)
{
    const core::RunStats r = core::runExperiment(largeValueConfig());
    expectGolden(r, Golden{238015u, 3500u, 557.505, 1135.3399999999999,
                           3976635.7169262194});
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(DataPlaneIdentity, ReplyCorruptionTwoNodes)
{
    core::ExperimentConfig cfg = largeValueConfig();
    cfg.arrivalRps = 8e6;
    cfg.system.seed = 3;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("rr");
    cfg.faults = {"packet-corrupt:p=0.01"};
    cfg.failOnVerifyError = false;
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{237954u, 3500u, 558.08600000000001,
                           1127.1869999999999, 7964271.5345639363});
    EXPECT_EQ(r.fault.packetsCorrupted, 470u);
    EXPECT_EQ(r.fault.corruptionsDetected, 417u);
    EXPECT_EQ(r.verifyFailures, 417u);
    // The corruption path must actually have run, or the lock is
    // vacuous.
    EXPECT_GT(r.fault.packetsCorrupted, 0u);
    EXPECT_GT(r.fault.corruptionsDetected, 0u);
}

TEST(DataPlaneIdentity, LargeValuesFourNodesTwoDomains)
{
    core::ExperimentConfig cfg = largeValueConfig();
    cfg.arrivalRps = 16e6;
    cfg.cluster.numServerNodes = 4;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load");
    cfg.parallelDomains = 2;
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(r, Golden{195642u, 3500u, 560.54999999999995, 1134.068,
                           15923566.878980892});
    EXPECT_EQ(r.verifyFailures, 0u);
}

} // namespace
