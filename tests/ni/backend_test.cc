/**
 * @file
 * Unit tests for the NI backend pipelines: ingress reassembly &
 * completion signaling, per-packet occupancy, message trains (events
 * only for a message's first- and last-received packets; a whole
 * train in on the same pipeline ticks as its packets; one egress
 * event per send), egress streaming, and replenish handling (§4.2,
 * §4.4). Lone packets reach the backend as the one-packet trains the
 * fabric makes of them (proto::packetTrain).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/buffers.hh"
#include "mem/memory_model.hh"
#include "net/fabric.hh"
#include "ni/backend.hh"
#include "proto/packet.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;
using ni::NiBackend;
using Simulator = sim::EventDomain;
using sim::Tick;
using sim::nanoseconds;

/** A perturber that never acts: its presence alone makes the fabric
 *  carry every packet on its own event. */
struct NoOpPerturber : net::PacketPerturber
{
    Verdict
    perturb(proto::Packet &, sim::DomainId, sim::Tick) override
    {
        return {};
    }
};

struct Fixture
{
    proto::MessagingDomain domain;
    Simulator sim;
    /** Zero latency: a packet reaches its sink at its injection tick. */
    net::Fabric fabric{sim, 0};
    NoOpPerturber perturber;
    mem::RecvBuffer recv;
    std::vector<proto::CompletionQueueEntry> completions;
    std::vector<Tick> completionTimes;
    std::vector<std::pair<proto::NodeId, std::uint32_t>> replenishes;
    std::vector<Tick> replenishTimes;
    std::vector<proto::Packet> injected;
    std::vector<Tick> injectTimes;
    std::unique_ptr<NiBackend> backend;

    /** @p per_packet attaches the no-op perturber, so egress injects
     *  every packet at its own tick rather than as one train. */
    explicit Fixture(bool per_packet = false)
        : domain(makeDomain()), recv(domain)
    {
        if (per_packet)
            fabric.setPerturber(&perturber);
        for (proto::NodeId n = 1; n < domain.numNodes; ++n) {
            fabric.connect(n, [this](const proto::Packet &pkt) {
                injected.push_back(pkt);
                injectTimes.push_back(sim.now());
            });
        }
        backend = std::make_unique<NiBackend>(
            sim, /*id=*/0, recv,
            [this](std::uint32_t, proto::CompletionQueueEntry cqe) {
                completions.push_back(cqe);
                completionTimes.push_back(sim.now());
            },
            [this](proto::NodeId n, std::uint32_t s) {
                replenishes.emplace_back(n, s);
                replenishTimes.push_back(sim.now());
            },
            fabric);
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

    /** Deliver @p pkt to the backend now, as a one-packet train. */
    void
    receive(const proto::Packet &pkt)
    {
        proto::Train train;
        proto::packetTrain(pkt, train);
        backend->receive(train);
    }

    /** Deliver @p pkt to the backend at absolute tick @p at. */
    void
    receiveAt(Tick at, const proto::Packet &pkt)
    {
        sim.schedule(at - sim.now(), [this, pkt] { receive(pkt); });
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
    f.receive(packets[0]);
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
        f.receive(pkt);
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
        f.receive(pkt);
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
                       [&f, pkt = packets[i]] { f.receive(pkt); });
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
    f.receive(pkt);
    f.sim.run();
    ASSERT_EQ(f.replenishes.size(), 1u);
    EXPECT_EQ(f.replenishes[0].first, 3u);
    EXPECT_EQ(f.replenishes[0].second, 1u);
    EXPECT_TRUE(f.completions.empty());
}

TEST(Backend, TransmitStreamsAllBlocks)
{
    Fixture f(/*per_packet=*/true);
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
    Fixture f(/*per_packet=*/true);
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
        f.receive(pkt);
    f.sim.run();
    EXPECT_EQ(f.backend->ingressBusyTicks(),
              nanoseconds(3.0) * packets.size());
}

// ----- message trains -----

TEST(Backend, TransmitTrainLeavesAtItsLastBlocksTick)
{
    // Without a perturber a multi-block send is one train, handed to
    // the fabric with its last block's egress tick: one fabric
    // delivery carries the blocks in order, and no event fires at
    // egress. The pipeline still pays every block.
    Fixture f;
    f.backend->transmitMessage(proto::OpType::Send, 0, 1, 0, bytes(192));
    f.backend->transmitMessage(proto::OpType::Replenish, 0, 1, 0, {});
    f.sim.run();
    ASSERT_EQ(f.injected.size(), 4u);
    const Tick last = nanoseconds(4.5) + 3 * nanoseconds(3.0);
    for (std::uint32_t i = 0; i < 3; ++i) {
        EXPECT_EQ(f.injected[i].hdr.blockIndex, i);
        EXPECT_EQ(f.injectTimes[i], last);
    }
    // The replenish queues behind all three blocks.
    EXPECT_EQ(f.injected[3].hdr.op, proto::OpType::Replenish);
    EXPECT_EQ(f.injectTimes[3], last + nanoseconds(3.0));
    EXPECT_EQ(f.backend->packetsSent(), 4u);
    // The train's delivery and the replenish's.
    EXPECT_EQ(f.sim.executedEvents(), 2u);
}

TEST(Backend, PerturbedFabricInjectsEveryBlockAlone)
{
    Fixture f(/*per_packet=*/true);
    f.backend->transmitMessage(proto::OpType::Send, 0, 1, 0, bytes(192));
    f.sim.run();
    ASSERT_EQ(f.injectTimes.size(), 3u);
    EXPECT_EQ(f.injectTimes[2] - f.injectTimes[0], 2 * nanoseconds(3.0));
    // One inject and one delivery per block.
    EXPECT_EQ(f.sim.executedEvents(), 6u);
}

TEST(Backend, IngressTrainSchedulesFirstAndLastOnly)
{
    // Five blocks at once: the first claims the slot as it leaves the
    // pipeline, the last completes the message; the three middle
    // blocks are placed on arrival and need no event.
    Fixture f;
    for (const auto &pkt :
         proto::packetize(proto::OpType::Send, 2, 0, 1, bytes(300)))
        f.receive(pkt);
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 1u);
    EXPECT_EQ(f.completionTimes[0],
              5 * nanoseconds(3.0) + mem::counterUpdateLatency);
    EXPECT_EQ(f.recv.slot(f.domain.slotIndex(2, 1)).payload, bytes(300));
    EXPECT_EQ(f.backend->packetsReceived(), 5u);
    EXPECT_EQ(f.backend->ingressBusyTicks(), 5 * nanoseconds(3.0));
    EXPECT_EQ(f.recv.busyHighWatermark(), 1u);
    // Claim, complete, completion notification.
    EXPECT_EQ(f.sim.executedEvents(), 3u);
}

TEST(Backend, InterleavedSourcesCompleteOnTheirOwnLastPackets)
{
    // Two messages share the pipeline packet by packet: each completes
    // when its own last packet leaves, at the per-packet schedule.
    Fixture f;
    const auto a = proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(150));
    const auto b = proto::packetize(proto::OpType::Send, 2, 0, 1, bytes(250));
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(b.size(), 4u);
    // Order A0 B0 A1 B1 A2 B2 B3: pipeline exits 3, 6, ..., 21 ns.
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (i < a.size())
            f.receive(a[i]);
        f.receive(b[i]);
    }
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 2u);
    EXPECT_EQ(f.completions[0].srcNode, 1u);
    EXPECT_EQ(f.completionTimes[0],
              5 * nanoseconds(3.0) + mem::counterUpdateLatency);
    EXPECT_EQ(f.completions[1].srcNode, 2u);
    EXPECT_EQ(f.completionTimes[1],
              7 * nanoseconds(3.0) + mem::counterUpdateLatency);
    EXPECT_EQ(f.recv.slot(f.domain.slotIndex(1, 0)).payload, bytes(150));
    EXPECT_EQ(f.recv.slot(f.domain.slotIndex(2, 1)).payload, bytes(250));
    EXPECT_EQ(f.recv.busyHighWatermark(), 2u);
    EXPECT_EQ(f.sim.executedEvents(), 6u);
}

TEST(Backend, StalledIngressTrainDrainsAfterTheStall)
{
    Fixture f;
    f.backend->stallIngress(nanoseconds(100.0));
    const auto pkts =
        proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(256));
    for (const auto &pkt : pkts)
        f.receiveAt(nanoseconds(10.0), pkt);
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 1u);
    // The latency clock starts at arrival, not at the stall's end.
    EXPECT_EQ(f.completions[0].firstPacketTick, nanoseconds(10.0));
    EXPECT_EQ(f.completionTimes[0], nanoseconds(100.0) +
                                        4 * nanoseconds(3.0) +
                                        mem::counterUpdateLatency);
}

TEST(Backend, ReorderedBlocksClaimAtFirstAndCompleteAtLastReceived)
{
    // Jittered arrivals: blocks 2, 0, 3, 1 at 0, 7, 8 and 30 ns. The
    // slot is claimed when block 2 leaves the pipeline (3 ns) and the
    // message completes when block 1 does (33 ns).
    Fixture f;
    const auto pkts =
        proto::packetize(proto::OpType::Send, 3, 0, 1, bytes(256));
    const std::uint32_t order[] = {2, 0, 3, 1};
    const double at[] = {0.0, 7.0, 8.0, 30.0};
    for (std::size_t i = 0; i < 4; ++i)
        f.receiveAt(nanoseconds(at[i]), pkts[order[i]]);
    const std::uint32_t index = f.domain.slotIndex(3, 1);
    bool busyBefore = true;
    bool busyAfter = false;
    f.sim.schedule(nanoseconds(2.0),
                   [&] { busyBefore = f.recv.slot(index).busy; });
    f.sim.schedule(nanoseconds(4.0),
                   [&] { busyAfter = f.recv.slot(index).busy; });
    f.sim.run();
    EXPECT_FALSE(busyBefore);
    EXPECT_TRUE(busyAfter);
    ASSERT_EQ(f.completions.size(), 1u);
    EXPECT_EQ(f.completions[0].firstPacketTick, 0u);
    EXPECT_EQ(f.completionTimes[0],
              nanoseconds(33.0) + mem::counterUpdateLatency);
    EXPECT_EQ(f.recv.slot(index).payload, bytes(256));
}

TEST(Backend, DroppedMiddleBlockNeverCompletes)
{
    // A lost block: the slot is claimed and holds the other three, but
    // the counter never reaches the total, so no completion fires.
    Fixture f;
    const auto pkts =
        proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(256));
    for (std::uint32_t b : {0u, 1u, 3u})
        f.receive(pkts[b]);
    f.sim.run();
    EXPECT_TRUE(f.completions.empty());
    const auto &slot = f.recv.slot(f.domain.slotIndex(1, 0));
    EXPECT_TRUE(slot.busy);
    EXPECT_EQ(slot.arrivedBlocks, 3u);
    EXPECT_EQ(f.recv.busyCount(), 1u);
    // Only the claim ran.
    EXPECT_EQ(f.sim.executedEvents(), 1u);
}

/** What one ingress scenario showed; see TrainIngressMatchesPackets. */
struct IngressTrace
{
    std::vector<Tick> completionTimes;
    std::vector<proto::CompletionQueueEntry> completions;
    bool busyBeforeClaim = true;
    bool busyAfterClaim = false;
    std::uint64_t packetsReceived = 0;
    Tick busyTicks = 0;
    std::uint64_t events = 0;
    std::vector<std::uint8_t> payload;
};

/**
 * Ingress stalled until 100 ns; a 2-block message queues at 10 ns; at
 * 20 ns a 5-block message arrives, as packets or as one train, then a
 * 1-block message whose exit shows where the pipeline stood.
 */
IngressTrace
ingressScenario(bool as_train)
{
    Fixture f;
    f.backend->stallIngress(nanoseconds(100.0));
    for (const auto &pkt :
         proto::packetize(proto::OpType::Send, 3, 0, 0, bytes(100)))
        f.receiveAt(nanoseconds(10.0), pkt);
    const auto data = bytes(300);
    if (as_train) {
        proto::Train train;
        proto::makeTrain(train, proto::OpType::Send, 2, 0, 1, data);
        f.sim.schedule(nanoseconds(20.0), [&f, train]() mutable {
            f.backend->receive(train);
        });
    } else {
        for (const auto &pkt :
             proto::packetize(proto::OpType::Send, 2, 0, 1, data))
            f.receiveAt(nanoseconds(20.0), pkt);
    }
    f.receiveAt(nanoseconds(20.0),
                proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(8))[0]);
    // The 2-block message leaves at 103 and 106 ns, so the 5-block
    // one's first block leaves (and claims) at 109 ns.
    const Tick claim = nanoseconds(109.0);
    const std::uint32_t index = f.domain.slotIndex(2, 1);
    IngressTrace t;
    f.sim.schedule(claim - 1,
                   [&] { t.busyBeforeClaim = f.recv.slot(index).busy; });
    f.sim.schedule(claim + 1,
                   [&] { t.busyAfterClaim = f.recv.slot(index).busy; });
    f.sim.run();
    t.completionTimes = f.completionTimes;
    t.completions = f.completions;
    t.packetsReceived = f.backend->packetsReceived();
    t.busyTicks = f.backend->ingressBusyTicks();
    t.events = f.sim.executedEvents();
    t.payload = f.recv.slot(index).payload;
    return t;
}

TEST(Backend, TrainIngressMatchesPackets)
{
    const IngressTrace packets = ingressScenario(false);
    const IngressTrace train = ingressScenario(true);
    for (const IngressTrace *t : {&packets, &train}) {
        SCOPED_TRACE(t == &train ? "train" : "packets");
        EXPECT_FALSE(t->busyBeforeClaim);
        EXPECT_TRUE(t->busyAfterClaim);
        // Exits at 106 ns (2 blocks), 121 ns (5 blocks behind them)
        // and 124 ns (the 1-block message behind both).
        ASSERT_EQ(t->completionTimes.size(), 3u);
        EXPECT_EQ(t->completionTimes[0],
                  nanoseconds(106.0) + mem::counterUpdateLatency);
        EXPECT_EQ(t->completionTimes[1],
                  nanoseconds(121.0) + mem::counterUpdateLatency);
        EXPECT_EQ(t->completionTimes[2],
                  nanoseconds(124.0) + mem::counterUpdateLatency);
        EXPECT_EQ(t->completions[1].srcNode, 2u);
        EXPECT_EQ(t->completions[1].firstPacketTick, nanoseconds(20.0));
        EXPECT_EQ(t->packetsReceived, 8u);
        EXPECT_EQ(t->busyTicks, 8 * nanoseconds(3.0));
        EXPECT_EQ(t->payload, bytes(300));
    }
    for (std::size_t i = 0; i < packets.completions.size(); ++i) {
        EXPECT_EQ(train.completions[i].slotIndex,
                  packets.completions[i].slotIndex);
        EXPECT_EQ(train.completions[i].msgBytes,
                  packets.completions[i].msgBytes);
        EXPECT_EQ(train.completions[i].firstPacketTick,
                  packets.completions[i].firstPacketTick);
    }
    // The train saves the delivery events of its 5 blocks (one
    // scheduled callback instead of five); the NI events are the same.
    EXPECT_EQ(train.events + 4, packets.events);
}

TEST(Backend, OneBlockTrainClaimsAndCompletesOnOneEvent)
{
    Fixture f;
    proto::Train train;
    proto::makeTrain(train, proto::OpType::Send, 1, 0, 0, bytes(40));
    f.backend->receive(train);
    f.sim.run();
    ASSERT_EQ(f.completions.size(), 1u);
    EXPECT_EQ(f.completionTimes[0],
              nanoseconds(3.0) + mem::counterUpdateLatency);
    EXPECT_EQ(f.recv.busyCount(), 1u);
    // The pipeline exit, then the completion notification.
    EXPECT_EQ(f.sim.executedEvents(), 2u);
}

/** What one-block arrivals showed; see OneBlockMessagesArriveAlike. */
struct OneBlockTrace
{
    std::vector<std::pair<proto::NodeId, std::uint32_t>> replenishes;
    std::vector<Tick> replenishTimes;
    std::vector<proto::CompletionQueueEntry> completions;
    std::vector<Tick> completionTimes;
    std::vector<proto::Packet> injected;
    std::vector<Tick> injectTimes;
    std::uint64_t packetsReceived = 0;
    std::uint64_t packetsSent = 0;
    std::uint64_t rendezvousPulls = 0;
    Tick busyTicks = 0;
    std::uint64_t events = 0;
    bool descriptorSlotBusy = false;
    std::vector<std::uint8_t> payload;
};

/**
 * Ingress stalled until 50 ns; at 10 ns a replenish (from node 3, slot
 * 1) and a rendezvous descriptor for a 300 B payload (from node 2,
 * slot 0) arrive, and at 20 ns a 40 B send (from node 1, slot 0):
 * each built as a whole train (makeTrain) or as a packet (makePacket)
 * and sent through the fabric.
 */
OneBlockTrace
oneBlockScenario(bool as_train)
{
    Fixture f;
    f.fabric.connect(0, [&f](proto::Train &train) {
        f.backend->receive(train);
    });
    f.backend->stallIngress(nanoseconds(50.0));
    auto sendAt = [&f, as_train](Tick at, proto::OpType op,
                                 proto::NodeId src, std::uint32_t slot,
                                 std::vector<std::uint8_t> data,
                                 std::uint32_t rendezvous_bytes) {
        f.sim.schedule(at, [&f, as_train, op, src, slot, data,
                            rendezvous_bytes] {
            proto::Train train;
            proto::makeTrain(train, op, src, 0, slot, data);
            proto::Packet pkt;
            proto::makePacket(pkt, op, src, 0, slot, data, 0);
            for (proto::PacketHeader *hdr : {&train.hdr, &pkt.hdr}) {
                hdr->rendezvous = rendezvous_bytes != 0;
                hdr->rendezvousBytes = rendezvous_bytes;
            }
            if (as_train)
                f.fabric.send(train);
            else
                f.fabric.send(pkt);
        });
    };
    sendAt(nanoseconds(10.0), proto::OpType::Replenish, 3, 1, {}, 0);
    sendAt(nanoseconds(10.0), proto::OpType::Send, 2, 0, {}, 300);
    sendAt(nanoseconds(20.0), proto::OpType::Send, 1, 0, bytes(40), 0);
    f.sim.run();
    OneBlockTrace t;
    t.replenishes = f.replenishes;
    t.replenishTimes = f.replenishTimes;
    t.completions = f.completions;
    t.completionTimes = f.completionTimes;
    t.injected = f.injected;
    t.injectTimes = f.injectTimes;
    t.packetsReceived = f.backend->packetsReceived();
    t.packetsSent = f.backend->packetsSent();
    t.rendezvousPulls = f.backend->rendezvousPulls();
    t.busyTicks = f.backend->ingressBusyTicks();
    t.events = f.sim.executedEvents();
    t.descriptorSlotBusy = f.recv.slot(f.domain.slotIndex(2, 0)).busy;
    t.payload = f.recv.slot(f.domain.slotIndex(1, 0)).payload;
    return t;
}

TEST(Backend, OneBlockMessagesArriveAlikeAsTrainsAndPackets)
{
    // A replenish, a rendezvous descriptor and a one-block send: the
    // same ingress ticks, counts and completion either way.
    const OneBlockTrace packets = oneBlockScenario(false);
    const OneBlockTrace train = oneBlockScenario(true);
    for (const OneBlockTrace *t : {&packets, &train}) {
        SCOPED_TRACE(t == &train ? "train" : "packets");
        // Pipeline exits at 53 (replenish), 56 (descriptor) and 59 ns
        // (send).
        ASSERT_EQ(t->replenishes.size(), 1u);
        EXPECT_EQ(t->replenishes[0],
                  (std::pair<proto::NodeId, std::uint32_t>{3, 1}));
        EXPECT_EQ(t->replenishTimes[0], nanoseconds(53.0));
        // The descriptor's pull leaves one counter update after its
        // exit, toward the payload's owner, naming the full size.
        ASSERT_EQ(t->injected.size(), 1u);
        EXPECT_EQ(t->injected[0].hdr.op, proto::OpType::RemoteRead);
        EXPECT_EQ(t->injected[0].hdr.src, 0u);
        EXPECT_EQ(t->injected[0].hdr.dst, 2u);
        EXPECT_EQ(t->injected[0].hdr.msgBytes, 300u);
        EXPECT_TRUE(t->injected[0].payload.empty());
        EXPECT_EQ(t->injectTimes[0],
                  nanoseconds(56.0) + mem::counterUpdateLatency);
        EXPECT_TRUE(t->descriptorSlotBusy);
        // Only the send completes.
        ASSERT_EQ(t->completions.size(), 1u);
        EXPECT_EQ(t->completions[0].srcNode, 1u);
        EXPECT_EQ(t->completions[0].msgBytes, 40u);
        EXPECT_EQ(t->completions[0].firstPacketTick, nanoseconds(20.0));
        EXPECT_EQ(t->completionTimes[0],
                  nanoseconds(59.0) + mem::counterUpdateLatency);
        EXPECT_EQ(t->payload, bytes(40));
        EXPECT_EQ(t->packetsReceived, 3u);
        EXPECT_EQ(t->packetsSent, 1u);
        EXPECT_EQ(t->rendezvousPulls, 1u);
        EXPECT_EQ(t->busyTicks, 3 * nanoseconds(3.0));
    }
    EXPECT_EQ(train.events, packets.events);
}

TEST(BackendDeath, MorePacketsThanBlocksPanicsOnArrival)
{
    // The receive-time count catches a duplicate block as it enters.
    Fixture f;
    const auto pkts =
        proto::packetize(proto::OpType::Send, 1, 0, 0, bytes(100));
    f.receive(pkts[0]);
    f.receive(pkts[1]);
    EXPECT_DEATH(f.receive(pkts[1]),
                 "more packets than blocks");
}

} // namespace
