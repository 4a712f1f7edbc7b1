/**
 * @file
 * Unit tests for the NI backend pipelines: ingress reassembly &
 * completion signaling, per-packet occupancy, egress streaming, and
 * replenish handling (§4.2, §4.4).
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/buffers.hh"
#include "mem/memory_model.hh"
#include "ni/backend.hh"
#include "proto/packet.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;
using ni::NiBackend;
using Simulator = sim::EventDomain;
using sim::Tick;
using sim::nanoseconds;

struct Fixture
{
    proto::MessagingDomain domain;
    Simulator sim;
    mem::RecvBuffer recv;
    std::vector<proto::CompletionQueueEntry> completions;
    std::vector<std::pair<proto::NodeId, std::uint32_t>> replenishes;
    std::vector<proto::Packet> injected;
    std::vector<Tick> injectTimes;
    std::unique_ptr<NiBackend> backend;

    Fixture() : domain(makeDomain()), recv(domain)
    {
        backend = std::make_unique<NiBackend>(
            sim, /*id=*/0, recv,
            [this](std::uint32_t, proto::CompletionQueueEntry cqe) {
                completions.push_back(cqe);
            },
            [this](proto::NodeId n, std::uint32_t s) {
                replenishes.emplace_back(n, s);
            },
            [this](proto::Packet pkt) {
                injected.push_back(pkt);
                injectTimes.push_back(sim.now());
            });
    }

    static proto::MessagingDomain
    makeDomain()
    {
        proto::MessagingDomain d;
        d.numNodes = 4;
        d.slotsPerNode = 2;
        d.maxMsgBytes = 512;
        return d;
    }
};

std::vector<std::uint8_t>
bytes(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i);
    return out;
}

TEST(Backend, SinglePacketSendCompletes)
{
    Fixture f;
    const auto packets =
        proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(40));
    f.backend->receivePacket(packets[0]);
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 1u);
    EXPECT_EQ(f.completions[0].srcNode, 1u);
    EXPECT_EQ(f.completions[0].msgBytes, 40u);
    EXPECT_EQ(f.completions[0].slotIndex, f.domain.slotIndex(1, 0));
    EXPECT_EQ(f.backend->packetsReceived(), 1u);
    EXPECT_EQ(f.backend->completionsSignaled(), 1u);
}

TEST(Backend, MultiPacketSendCompletesOnceAllArrive)
{
    Fixture f;
    const auto packets =
        proto::packetize(proto::OpType::Send, 2, 0, 1, bytes(300));
    ASSERT_EQ(packets.size(), 5u);
    for (const auto &pkt : packets)
        f.backend->receivePacket(pkt);
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 1u);
    EXPECT_EQ(f.completions[0].msgBytes, 300u);
    // Payload landed in the receive buffer.
    const auto &slot = f.recv.slot(f.domain.slotIndex(2, 1));
    EXPECT_EQ(slot.payload, bytes(300));
}

TEST(Backend, CompletionTimeIncludesPipelineAndCounter)
{
    // N packets serialize at 3 ns each; the completion fires one
    // counter update (LLC) after the last clears the pipeline.
    Fixture f;
    Tick completion_at = 0;
    const auto packets =
        proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(128));
    for (const auto &pkt : packets)
        f.backend->receivePacket(pkt);
    f.sim.schedule(0, [] {}); // anchor t=0
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 1u);
    completion_at = f.completions[0].firstPacketTick; // == 0
    EXPECT_EQ(completion_at, 0u);
    // Executed time: 2 packets x 3 ns + counter update (LLC, 4.5 ns).
    EXPECT_EQ(mem::counterUpdateLatency, nanoseconds(4.5));
    EXPECT_EQ(f.sim.now(), nanoseconds(3.0) * 2 + mem::counterUpdateLatency);
}

TEST(Backend, FirstPacketTickIsArrivalNotCompletion)
{
    Fixture f;
    const auto packets =
        proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(256));
    // Deliver packets spaced 10 ns apart.
    for (std::size_t i = 0; i < packets.size(); ++i) {
        f.sim.schedule(nanoseconds(10.0 * static_cast<double>(i)),
                       [&f, pkt = packets[i]] {
                           f.backend->receivePacket(pkt);
                       });
    }
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 1u);
    EXPECT_EQ(f.completions[0].firstPacketTick, 0u);
}

TEST(Backend, ReplenishInvokesHandler)
{
    Fixture f;
    proto::Packet pkt;
    pkt.hdr.op = proto::OpType::Replenish;
    pkt.hdr.src = 3;
    pkt.hdr.dst = 0;
    pkt.hdr.slot = 1;
    f.backend->receivePacket(pkt);
    f.sim.run();
    ASSERT_EQ(f.replenishes.size(), 1u);
    EXPECT_EQ(f.replenishes[0].first, 3u);
    EXPECT_EQ(f.replenishes[0].second, 1u);
    EXPECT_TRUE(f.completions.empty());
}

TEST(Backend, TransmitStreamsAllBlocks)
{
    Fixture f;
    f.backend->transmitMessage(proto::OpType::Send, 0, 3, 1, bytes(512));
    f.sim.run();
    ASSERT_EQ(f.injected.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(f.injected[i].hdr.blockIndex, i);
        EXPECT_EQ(f.injected[i].hdr.src, 0u);
        EXPECT_EQ(f.injected[i].hdr.dst, 3u);
        EXPECT_EQ(f.injected[i].hdr.slot, 1u);
    }
    EXPECT_EQ(proto::reassemble(f.injected), bytes(512));
    EXPECT_EQ(f.backend->packetsSent(), 8u);
}

TEST(Backend, EgressPacketsPacedByOccupancy)
{
    Fixture f;
    f.backend->transmitMessage(proto::OpType::Send, 0, 1, 0, bytes(192));
    f.sim.run();
    ASSERT_EQ(f.injectTimes.size(), 3u);
    // First packet after txSetup + occupancy; then occupancy apart.
    EXPECT_EQ(ni::txSetupLatency, nanoseconds(4.5));
    EXPECT_EQ(ni::backendPacketOccupancy, nanoseconds(3.0));
    EXPECT_EQ(f.injectTimes[0], nanoseconds(4.5) + nanoseconds(3.0));
    EXPECT_EQ(f.injectTimes[1] - f.injectTimes[0], nanoseconds(3.0));
    EXPECT_EQ(f.injectTimes[2] - f.injectTimes[1], nanoseconds(3.0));
}

TEST(Backend, BackToBackTransmitsQueueInOrder)
{
    // A replenish posted right after a reply send leaves after the
    // reply's last packet — the ordering the slot-mirroring protocol
    // relies on.
    Fixture f;
    f.backend->transmitMessage(proto::OpType::Send, 0, 1, 0, bytes(512));
    f.backend->transmitMessage(proto::OpType::Replenish, 0, 1, 0, {});
    f.sim.run();
    ASSERT_EQ(f.injected.size(), 9u);
    EXPECT_EQ(f.injected.back().hdr.op, proto::OpType::Replenish);
}

TEST(Backend, IngressBusyTicksAccumulate)
{
    Fixture f;
    const auto packets =
        proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(256));
    for (const auto &pkt : packets)
        f.backend->receivePacket(pkt);
    f.sim.run();
    EXPECT_EQ(f.backend->ingressBusyTicks(),
              nanoseconds(3.0) * packets.size());
}

} // namespace
