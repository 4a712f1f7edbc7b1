/**
 * @file
 * Harvest bit-identity lock: every latency-derived RunStats field —
 * the headline point, each class, the four breakdown components,
 * each node, and the degraded/healthy fault split — must reproduce
 * these exact numbers across rewrites of how the nodes record samples
 * and how the harvest summarizes them.
 *
 * KernelIdentity and RecoveryIdentity lock the event schedule and the
 * headline p50/p99; the runs here pin the summaries those goldens
 * leave open: means, p90/p999, SLO attainment, per-node percentiles,
 * component tails and the fault-window split. The three runs cover a
 * non-critical class with a declared SLO (one node), timed faults on
 * a sequential four-node cluster, and the parallel (WindowPool) path.
 *
 * Comparisons are exact (EXPECT_EQ on doubles): these are replays of
 * a deterministic computation, not statistical estimates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

struct ClassGolden
{
    std::uint64_t completions;
    double achievedRps;
    double meanNs;
    double p50Ns;
    double p99Ns;
    double p999Ns;
    double sloAttainment;
};

struct NodeGolden
{
    std::uint64_t samples;
    double achievedRps;
    double meanNs;
    double p50Ns;
    double p99Ns;
};

/** Mean and p99 of one breakdown component. */
struct ComponentGolden
{
    double meanNs;
    double p99Ns;
};

/** The locked latency summaries of one run. */
struct Golden
{
    double meanNs;
    double p50Ns;
    double p90Ns;
    double p99Ns;
    std::uint64_t samples;
    std::vector<ClassGolden> perClass;
    ComponentGolden reassembly;
    ComponentGolden dispatch;
    ComponentGolden queueWait;
    ComponentGolden service;
    std::vector<NodeGolden> perNode;
    double degradedP99Ns;
    std::uint64_t degradedSamples;
    double healthyP99Ns;
    std::uint64_t healthySamples;
};

void
expectComponent(const core::ComponentStats &c, const ComponentGolden &g)
{
    EXPECT_EQ(c.meanNs, g.meanNs);
    EXPECT_EQ(c.p99Ns, g.p99Ns);
}

void
expectGolden(const core::RunStats &r, const Golden &g)
{
    EXPECT_EQ(r.point.meanNs, g.meanNs);
    EXPECT_EQ(r.point.p50Ns, g.p50Ns);
    EXPECT_EQ(r.point.p90Ns, g.p90Ns);
    EXPECT_EQ(r.point.p99Ns, g.p99Ns);
    EXPECT_EQ(r.point.samples, g.samples);
    ASSERT_EQ(r.perClass.size(), g.perClass.size());
    for (std::size_t c = 0; c < g.perClass.size(); ++c) {
        SCOPED_TRACE("class " + r.perClass[c].name);
        const core::ClassStats &cs = r.perClass[c];
        const ClassGolden &cg = g.perClass[c];
        EXPECT_EQ(cs.completions, cg.completions);
        EXPECT_EQ(cs.achievedRps, cg.achievedRps);
        EXPECT_EQ(cs.meanNs, cg.meanNs);
        EXPECT_EQ(cs.p50Ns, cg.p50Ns);
        EXPECT_EQ(cs.p99Ns, cg.p99Ns);
        EXPECT_EQ(cs.p999Ns, cg.p999Ns);
        EXPECT_EQ(cs.sloAttainment, cg.sloAttainment);
    }
    expectComponent(r.breakdown.reassembly, g.reassembly);
    expectComponent(r.breakdown.dispatch, g.dispatch);
    expectComponent(r.breakdown.queueWait, g.queueWait);
    expectComponent(r.breakdown.service, g.service);
    ASSERT_EQ(r.perNode.size(), g.perNode.size());
    for (std::size_t i = 0; i < g.perNode.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        const core::NodeStats &ns = r.perNode[i];
        const NodeGolden &ng = g.perNode[i];
        EXPECT_EQ(ns.samples, ng.samples);
        EXPECT_EQ(ns.achievedRps, ng.achievedRps);
        EXPECT_EQ(ns.meanNs, ng.meanNs);
        EXPECT_EQ(ns.p50Ns, ng.p50Ns);
        EXPECT_EQ(ns.p99Ns, ng.p99Ns);
    }
    EXPECT_EQ(r.fault.degradedP99Ns, g.degradedP99Ns);
    EXPECT_EQ(r.fault.degradedSamples, g.degradedSamples);
    EXPECT_EQ(r.fault.healthyP99Ns, g.healthyP99Ns);
    EXPECT_EQ(r.fault.healthySamples, g.healthySamples);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(HarvestIdentity, OneNodeMixWithNonCriticalClassAndSlo)
{
    // Masstree gets (critical, 12.5 us SLO) mixed with rare scans
    // (non-critical, no SLO): the point covers gets only, the classes
    // split, and SLO attainment walks the get samples.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 3e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 12000;
    cfg.system.seed = 12345;
    cfg.workload = "mix:masstree-get=0.998,masstree-scan=0.002";
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(
        r, Golden{1488.1765571249477, 1305.423, 2415.0839999999998,
                  4017.2049999999999, 11965u,
                  {{11965u, 2986593.4461086639, 1488.1765571249477,
                    1305.423, 4017.2049999999999, 6252.5649999999996,
                    0.99991642290012539},
                   {35u, 8736.3786555623265, 95559.66131428571,
                    99677.394, 118773.621, 118773.621, 1.0}},
                  {3.0062230833333334, 3.0},
                  {18.249277750000001, 25.0},
                  {7.1828318333333332, 0.0},
                  {1734.1133883333334, 4374.2579999999998},
                  {{12000u, 2995329.8247642266, 1762.5517209999998,
                    1308.135, 4398.9589999999998}},
                  0.0, 0u, 0.0, 0u});
    EXPECT_GT(r.perClass[1].completions, 0u);
}

TEST(HarvestIdentity, FourNodeChaosSplitsDegradedFromHealthy)
{
    // Four sequential nodes with a timed crash (30 us to 130 us) plus
    // run-wide loss and delay: critical samples split by whether they
    // completed inside the crash window.
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
    expectGolden(
        r, Golden{559.18243333333339, 523.91999999999996, 767.23800000000006,
                  1171.2660000000001, 3000u,
                  {{3000u, 40104770.772626966, 559.18243333333339,
                    523.91999999999996, 1171.2660000000001, 1469.413,
                    1.0}},
                  {3.0422916666666664, 5.3239999999999998},
                  {18.318512999999999, 25.0},
                  {3.96963, 92.631},
                  {533.85199866666665, 1096.2180000000001},
                  {{889u, 11884380.405621791, 552.54292913385825,
                    519.24699999999996, 1185.588},
                   {999u, 13354888.667284779, 558.50218618618612,
                    521.43600000000004, 1166.9390000000001},
                   {963u, 12873631.418013256, 562.85147040498441,
                    529.86400000000003, 1194.701},
                   {149u, 1991870.2817071392, 579.64420134228192,
                    549.93200000000002, 1171.2660000000001}},
                  1188.2860000000001, 2363u, 1056.675, 637u});
    // Both halves of the split must hold samples, or the lock is
    // vacuous.
    EXPECT_GT(r.fault.degradedSamples, 0u);
    EXPECT_GT(r.fault.healthySamples, 0u);
}

TEST(HarvestIdentity, TwoNodeParallelHerd)
{
    // Two nodes on the parallel DES: the nodes record on WindowPool
    // workers and the harvest reads them after the last barrier.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 20e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 4000;
    cfg.system.seed = 3;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("rr");
    cfg.parallelDomains = 2;
    const core::RunStats r = core::runExperiment(cfg);
    expectGolden(
        r, Golden{552.17107149999993, 520.40700000000004, 751.41899999999998,
                  1084.5550000000001, 4000u,
                  {{4000u, 19910403.185664508, 552.17107149999993,
                    520.40700000000004, 1084.5550000000001, 1223.5,
                    1.0}},
                  {3.0114364999999998, 3.0},
                  {18.196298500000001, 25.0},
                  {0.0, 0.0},
                  {530.96333649999997, 1060.5060000000001},
                  {{1999u, 9950223.9920358378, 548.2528024012006,
                    514.21900000000005, 1088.5060000000001},
                   {2001u, 9960179.1936286706, 556.08542428785609,
                    527.90300000000002, 1076.2909999999999}},
                  0.0, 0u, 0.0, 0u});
}

} // namespace
