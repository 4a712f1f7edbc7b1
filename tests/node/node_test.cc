/**
 * @file
 * Node-level behavioural tests: mode wiring, outstanding-threshold
 * effects, balance properties, and flow-control integrity.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "app/herd_app.hh"
#include "app/workload.hh"
#include "core/experiment.hh"
#include "net/traffic_gen.hh"
#include "node/rpc_node.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;

/** Directly wire a node + traffic generator for introspection. */
struct NodeHarness
{
    sim::EventDomain sim;
    net::Fabric fabric;
    app::HerdApp app;
    node::SystemParams params;
    std::unique_ptr<node::RpcNode> node;
    std::unique_ptr<net::TrafficGenerator> tg;

    explicit NodeHarness(ni::DispatchMode mode, double rps = 5e6)
        : fabric(sim, sim::nanoseconds(100.0))
    {
        params.mode = mode;
        params.seed = 11;
        // Node 0 with no reply-slot lease and an unbounded QP cache.
        node = std::make_unique<node::RpcNode>(sim, params, app, fabric,
                                               node::RpcNode::Derived{});
        net::TrafficGenerator::Params tp;
        tp.arrivalRps = rps;
        tp.seed = 11;
        tg = std::make_unique<net::TrafficGenerator>(
            sim, tp, params.domain, app, fabric);
        for (proto::NodeId n = 1; n < params.domain.numNodes; ++n) {
            fabric.connect(n, [this](proto::Train &train) {
                tg->receive(train);
            });
        }
    }

    void
    runFor(double us)
    {
        node->start();
        tg->start();
        sim.runUntil(sim::microseconds(us));
        tg->halt();
        sim.run(); // drain
    }
};

TEST(RpcNode, SingleQueueModeHasOneDispatcher)
{
    NodeHarness h(ni::DispatchMode::SingleQueue);
    EXPECT_NE(h.node->dispatcher(0), nullptr);
    EXPECT_EQ(h.node->dispatcher(1), nullptr);
    EXPECT_EQ(h.node->softwareQueue(), nullptr);
}

TEST(RpcNode, GroupedModeHasOneDispatcherPerBackend)
{
    NodeHarness h(ni::DispatchMode::PerBackendGroup);
    for (std::uint32_t d = 0; d < 4; ++d)
        EXPECT_NE(h.node->dispatcher(d), nullptr);
    EXPECT_EQ(h.node->dispatcher(4), nullptr);
}

TEST(RpcNode, StaticHashModeHasNoDispatcher)
{
    NodeHarness h(ni::DispatchMode::StaticHash);
    EXPECT_EQ(h.node->dispatcher(0), nullptr);
    EXPECT_EQ(h.node->softwareQueue(), nullptr);
}

TEST(RpcNode, SoftwareModeUsesSharedQueue)
{
    NodeHarness h(ni::DispatchMode::SoftwarePull);
    ASSERT_NE(h.node->softwareQueue(), nullptr);
    h.runFor(200.0);
    EXPECT_GT(h.node->softwareQueue()->pulls(), 100u);
    EXPECT_EQ(h.node->served(), h.tg->repliesReceived());
}

TEST(RpcNode, AllRequestsDrainAndSlotsRecycle)
{
    NodeHarness h(ni::DispatchMode::SingleQueue, 10e6);
    h.runFor(500.0);
    EXPECT_EQ(h.tg->repliesReceived(), h.tg->requestsSent());
    EXPECT_EQ(h.tg->inFlight(), 0u);
    EXPECT_EQ(h.tg->verificationFailures(), 0u);
    EXPECT_GT(h.node->served(), 3000u);
    // After drain, dispatcher credits are all returned.
    const auto *disp = h.node->dispatcher(0);
    ASSERT_NE(disp, nullptr);
    for (proto::CoreId c = 0; c < 16; ++c)
        EXPECT_EQ(disp->outstanding(c), 0u);
}

TEST(RpcNode, BackendsShareIngressWork)
{
    NodeHarness h(ni::DispatchMode::SingleQueue, 10e6);
    h.runFor(500.0);
    std::uint64_t total = 0;
    for (std::uint32_t b = 0; b < 4; ++b)
        total += h.node->backend(b).packetsReceived();
    EXPECT_GT(total, 0u);
    for (std::uint32_t b = 0; b < 4; ++b) {
        const double share =
            static_cast<double>(h.node->backend(b).packetsReceived()) /
            static_cast<double>(total);
        EXPECT_GT(share, 0.15);
        EXPECT_LT(share, 0.35);
    }
}

TEST(RpcNode, NoReplySlotStallsInSteadyState)
{
    NodeHarness h(ni::DispatchMode::SingleQueue, 15e6);
    h.runFor(500.0);
    EXPECT_EQ(h.node->replySlotStalls(), 0u);
}

TEST(RpcNode, RecvSlotPeakBoundedByDomain)
{
    NodeHarness h(ni::DispatchMode::SingleQueue, 20e6);
    h.runFor(300.0);
    EXPECT_GT(h.node->recvSlotPeak(), 0u);
    EXPECT_LE(h.node->recvSlotPeak(), h.params.domain.totalSlots());
}

TEST(RpcNode, StaticHashImbalanceExceedsSingleQueue)
{
    // The variance of per-core served counts is the load-imbalance
    // signature: 16x1's static spreading must be more uneven than
    // RPCValet's single queue.
    auto spread = [](ni::DispatchMode mode) {
        core::ExperimentConfig cfg;
        cfg.system.mode = mode;
        cfg.system.seed = 3;
        cfg.arrivalRps = 20e6;
        cfg.warmupRpcs = 1000;
        cfg.measuredRpcs = 30000;
        cfg.workload = "synthetic:dist=gev";
        const auto r = core::runExperiment(cfg);
        const auto &served = r.perCoreServed;
        const double mean =
            std::accumulate(served.begin(), served.end(), 0.0) /
            static_cast<double>(served.size());
        double var = 0.0;
        for (auto s : served) {
            const double d = static_cast<double>(s) - mean;
            var += d * d;
        }
        return var / static_cast<double>(served.size());
    };
    EXPECT_GT(spread(ni::DispatchMode::StaticHash),
              2.0 * spread(ni::DispatchMode::SingleQueue));
}

TEST(RpcNode, ThresholdOneStillReachesHighThroughput)
{
    // §6.1: reducing outstanding-per-core to 1 only marginally
    // degrades HERD throughput (the dispatch bubble is tens of ns on
    // a ~550 ns service time).
    auto capacity = [](std::uint32_t threshold) {
        core::ExperimentConfig cfg;
        cfg.system.outstandingPerCore = threshold;
        cfg.system.seed = 5;
        cfg.arrivalRps = 60e6; // overload: measure capacity
        cfg.warmupRpcs = 3000;
        cfg.measuredRpcs = 40000;
        return core::runExperiment(cfg).point.achievedRps;
    };
    const double thr1 = capacity(1);
    const double thr2 = capacity(2);
    EXPECT_GT(thr2, thr1);               // bubble costs something
    EXPECT_GT(thr1, thr2 * 0.90);        // ...but only marginally
}

TEST(RpcNode, GroupedModeConfinesDispatchToGroups)
{
    // In 4x4 mode each dispatcher owns 4 cores; all 16 cores still
    // get work (no group starves under uniform traffic).
    core::ExperimentConfig cfg;
    cfg.system.mode = ni::DispatchMode::PerBackendGroup;
    cfg.system.seed = 9;
    cfg.arrivalRps = 15e6;
    cfg.warmupRpcs = 1000;
    cfg.measuredRpcs = 20000;
    const auto r = core::runExperiment(cfg);
    for (auto served : r.perCoreServed)
        EXPECT_GT(served, 500u);
}

TEST(RpcNode, AllPoliciesServeCorrectlyUnderLoad)
{
    // Every registered dispatch policy — including the stateful ones —
    // must preserve functional correctness and keep up with offered
    // load; only tail latency may differ.
    for (const char *policy :
         {"greedy", "rr", "pow2:d=3", "jbsq:d=2",
          "stale-jsq:staleness=50ns", "delay-aware"}) {
        core::ExperimentConfig cfg;
        cfg.system.policy = policy;
        cfg.system.seed = 15;
        cfg.arrivalRps = 20e6;
        cfg.warmupRpcs = 1000;
        cfg.measuredRpcs = 20000;
        const auto r = core::runExperiment(cfg);
        EXPECT_EQ(r.verifyFailures, 0u) << policy;
        EXPECT_NEAR(r.point.achievedRps, 20e6, 20e6 * 0.06) << policy;
    }
}

TEST(RpcNode, GreedyPolicyHasBestTailAmongPaperPolicies)
{
    auto p99_of = [](const ni::PolicySpec &policy) {
        core::ExperimentConfig cfg;
        cfg.system.policy = policy;
        cfg.system.seed = 16;
        cfg.arrivalRps = 17e6;
        cfg.warmupRpcs = 1000;
        cfg.measuredRpcs = 25000;
        cfg.workload = "synthetic:dist=gev";
        return core::runExperiment(cfg).point.p99Ns;
    };
    const double greedy = p99_of("greedy");
    EXPECT_LE(greedy, p99_of("rr") * 1.05);
    EXPECT_LE(greedy, p99_of("pow2") * 1.05);
}

TEST(RpcNode, CustomCoreCountWorks)
{
    // The library supports non-paper geometries (e.g. 64-core 8x8).
    core::ExperimentConfig cfg;
    cfg.system.meshRows = 8;
    cfg.system.meshCols = 8;
    cfg.system.seed = 13;
    cfg.arrivalRps = 40e6;
    cfg.warmupRpcs = 1000;
    cfg.measuredRpcs = 20000;
    const auto r = core::runExperiment(cfg);
    EXPECT_EQ(r.verifyFailures, 0u);
    EXPECT_NEAR(r.point.achievedRps, 40e6, 40e6 * 0.06);
    EXPECT_EQ(r.perCoreServed.size(), 64u);
}

TEST(RpcNode, CrashCutRequestKeepsItsSlotAndRecoveryServesNewOnes)
{
    // A crash drops the tail of a 25-block request train. Its head was
    // staged on arrival and claimed the receive slot, but the arrival
    // count never reaches the total, so the request never reaches a
    // core. After recovery a new request on another slot stages from a
    // zero count and is served; the cut one keeps its slot.
    sim::EventDomain sim;
    net::Fabric fabric(sim, sim::nanoseconds(100.0));
    const app::RpcApplicationPtr app = app::WorkloadRegistry::instance().make(
        app::WorkloadSpec("herd:value_bytes=1536,read_ratio=0"));
    node::SystemParams params;
    node::RpcNode node(sim, params, *app, fabric, node::RpcNode::Derived{});
    std::uint64_t toClient = 0;
    fabric.connect(1, [&toClient](const proto::Packet &) { ++toClient; });

    sim::Rng rng(1, 7);
    const auto cut =
        proto::packetize(proto::OpType::Send, 1, 0, 0, app->makeRequest(rng));
    const auto whole =
        proto::packetize(proto::OpType::Send, 1, 0, 1, app->makeRequest(rng));
    ASSERT_GT(cut.size(), 2u);
    const std::size_t head = cut.size() / 2;
    auto sendAt = [&](double ns, const std::vector<proto::Packet> &pkts,
                      std::size_t from, std::size_t to) {
        sim.schedule(sim::nanoseconds(ns), [&fabric, &pkts, from, to] {
            for (std::size_t i = from; i < to; ++i)
                fabric.send(pkts[i]);
        });
    };
    sendAt(0.0, cut, 0, head);            // lands at 100 ns
    sim.schedule(sim::nanoseconds(250.0), [&node] { node.setFailed(true); });
    sendAt(200.0, cut, head, cut.size()); // lands at 300 ns: dropped
    sim.schedule(sim::nanoseconds(400.0), [&node] { node.setFailed(false); });
    sendAt(500.0, whole, 0, whole.size());
    sim.run();

    EXPECT_EQ(node.droppedPackets(), cut.size() - head);
    EXPECT_EQ(node.served(), 1u);
    // The reply and its replenish went back to the client.
    EXPECT_EQ(toClient, 2u);
    EXPECT_EQ(node.recvSlotsBusy(), 1u);
    EXPECT_EQ(node.recvSlotPeak(), 2u);
}

TEST(RpcNodeDeath, ChainedWorkloadWithoutIssuerIsFatal)
{
    // A node driven directly (no experiment layer) has no nested
    // issuer; the first chained handler must die with a pointer to the
    // sequential path, whether it runs to completion in one go or
    // finishes its last preemption slice.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const sim::Tick quantum : {sim::Tick{0}, sim::nanoseconds(200)}) {
        EXPECT_EXIT(
            {
                sim::EventDomain sim;
                net::Fabric fabric(sim, sim::nanoseconds(100.0));
                const app::RpcApplicationPtr app =
                    app::WorkloadRegistry::instance().make(
                        app::WorkloadSpec("chain:tiers=2,fanout=2"));
                node::SystemParams params;
                params.preemptionQuantum = quantum;
                node::RpcNode node(sim, params, *app, fabric,
                                   node::RpcNode::Derived{});
                net::TrafficGenerator::Params tp;
                tp.arrivalRps = 1e6;
                net::TrafficGenerator tg(sim, tp, params.domain, *app,
                                         fabric);
                for (proto::NodeId n = 1; n < params.domain.numNodes; ++n) {
                    fabric.connect(n, [&tg](proto::Train &train) {
                        tg.receive(train);
                    });
                }
                node.start();
                tg.start();
                sim.runUntil(sim::microseconds(50.0));
            },
            ::testing::ExitedWithCode(1),
            "chained workloads need the sequential path");
    }
}

} // namespace
