/**
 * @file
 * Cross-validation: the full-system simulator against the pure
 * queuing model (§6.3's methodology at test scale), plus conservation
 * and leak checks after complete drains.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "app/synthetic_app.hh"
#include "core/experiment.hh"
#include "net/traffic_gen.hh"
#include "node/rpc_node.hh"
#include "queueing/model.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;

TEST(Consistency, SystemTracksQueueingModelAtMidLoad)
{
    // §6.3: with service = fixed overhead + distributed part, the
    // implementation's p99 should track the 1x16 model closely below
    // saturation.
    core::ExperimentConfig cfg;
    cfg.workload = "synthetic:dist=exponential";
    cfg.system.seed = 31;
    cfg.arrivalRps = 12e6; // ~62% load
    cfg.warmupRpcs = 5000;
    cfg.measuredRpcs = 80000;
    const auto sim_run = core::runExperiment(cfg);

    const double sbar = sim_run.meanServiceNs;
    auto processing = sim::makeSynthetic(sim::SyntheticKind::Exponential);
    sim::ShiftedDist model_service(sbar - processing->mean(),
                                   processing->clone());
    queueing::ModelConfig mc;
    mc.numQueues = 1;
    mc.unitsPerQueue = 16;
    mc.arrivalRps = cfg.arrivalRps;
    mc.service = &model_service;
    mc.seed = 32;
    mc.warmupCompletions = 5000;
    mc.measuredCompletions = 80000;
    const auto model = queueing::runModel(mc);

    // Within 15% at p99 (the paper's worst-case bound), and the
    // system is never *better* than the model by more than the NI
    // path constants.
    EXPECT_LT(sim_run.point.p99Ns, model.point.p99Ns * 1.15 + 100.0);
    EXPECT_GT(sim_run.point.p99Ns, model.point.p99Ns * 0.85 - 100.0);
}

struct DrainCase
{
    ni::DispatchMode mode;
    std::uint32_t padding;
};

class DrainProperty : public ::testing::TestWithParam<DrainCase>
{
};

TEST_P(DrainProperty, NoLeaksAfterFullDrain)
{
    // Run under load, halt arrivals, drain: every request must be
    // answered and every resource returned.
    sim::EventDomain sim;
    net::Fabric fabric(sim, sim::nanoseconds(100.0));
    app::SyntheticApp app(sim::SyntheticKind::Gev);
    app.setRequestPaddingBytes(GetParam().padding);

    node::SystemParams params;
    params.mode = GetParam().mode;
    params.seed = 33;
    node::RpcNode node(sim, params, app, fabric);

    net::TrafficGenerator::Params tp;
    tp.arrivalRps = 12e6;
    tp.seed = 33;
    net::TrafficGenerator tg(sim, tp, params.domain, app, fabric);
    fabric.connectDefault(
        [&tg](proto::Packet pkt) { tg.receivePacket(std::move(pkt)); });

    node.start();
    tg.start();
    sim.runUntil(sim::microseconds(400.0));
    tg.halt();
    sim.run();

    EXPECT_GT(node.served(), 1000u);
    EXPECT_EQ(tg.repliesReceived(), tg.requestsSent());
    EXPECT_EQ(tg.verificationFailures(), 0u);
    EXPECT_EQ(tg.inFlight(), 0u);
    EXPECT_EQ(node.recvSlotsBusy(), 0u) << "receive-slot leak";
    if (const auto *disp = node.dispatcher(0)) {
        for (proto::CoreId c = 0; c < params.numCores; ++c)
            EXPECT_EQ(disp->outstanding(c), 0u) << "credit leak";
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSizes, DrainProperty,
    ::testing::Values(
        DrainCase{ni::DispatchMode::SingleQueue, 24},
        DrainCase{ni::DispatchMode::SingleQueue, 1200},
        DrainCase{ni::DispatchMode::SingleQueue, 5000}, // rendezvous
        DrainCase{ni::DispatchMode::PerBackendGroup, 24},
        DrainCase{ni::DispatchMode::StaticHash, 24},
        DrainCase{ni::DispatchMode::SoftwarePull, 24}),
    [](const auto &tpinfo) {
        std::string name =
            ni::dispatchModeName(tpinfo.param.mode) + "_" +
            std::to_string(tpinfo.param.padding);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Consistency, PreemptionDrainsCleanlyToo)
{
    core::ExperimentConfig cfg;
    cfg.workload = "synthetic:dist=gev";
    cfg.system.seed = 34;
    cfg.system.preemptionQuantum = sim::microseconds(1.0);
    cfg.arrivalRps = 8e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 15000;
    const auto r = core::runExperiment(cfg);
    EXPECT_EQ(r.verifyFailures, 0u);
    // GEV occasionally exceeds 1 us: some yields must have happened.
    EXPECT_GT(r.preemptionYields, 0u);
}

} // namespace
