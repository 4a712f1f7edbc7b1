/**
 * @file
 * Unit tests for the inter-node fabric. Packet-reading sinks go
 * through connect()'s packet adapter; train sinks see what the fabric
 * carries: whole trains, or the one-packet trains it makes of lone
 * packets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/fabric.hh"
#include "proto/packet.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;
using net::Fabric;
using Simulator = sim::EventDomain;
using sim::Tick;
using sim::nanoseconds;

proto::Packet
packetTo(proto::NodeId dst)
{
    proto::Packet pkt;
    pkt.hdr.op = proto::OpType::Send;
    pkt.hdr.dst = dst;
    return pkt;
}

TEST(Fabric, DeliversAfterConfiguredLatency)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(100));
    Tick delivered_at = 0;
    fabric.connect(0, [&](proto::Packet) { delivered_at = sim.now(); });
    fabric.send(packetTo(0));
    sim.run();
    EXPECT_EQ(delivered_at, nanoseconds(100));
    EXPECT_EQ(fabric.delivered(), 1u);
}

TEST(Fabric, RoutesBySinkRegistration)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(10));
    int to_a = 0;
    int to_b = 0;
    fabric.connect(0, [&](proto::Packet) { ++to_a; });
    fabric.connect(7, [&](proto::Packet) { ++to_b; });
    fabric.send(packetTo(0));
    fabric.send(packetTo(7));
    fabric.send(packetTo(7));
    sim.run();
    EXPECT_EQ(to_a, 1);
    EXPECT_EQ(to_b, 2);
}

TEST(Fabric, PreservesPerPairOrdering)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(10));
    std::vector<std::uint32_t> seen;
    fabric.connect(0, [&](proto::Packet pkt) {
        seen.push_back(pkt.hdr.blockIndex);
    });
    for (std::uint32_t i = 0; i < 10; ++i) {
        proto::Packet pkt = packetTo(0);
        pkt.hdr.blockIndex = i;
        fabric.send(std::move(pkt));
    }
    sim.run();
    ASSERT_EQ(seen.size(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(seen[i], i);
}

// ----- message trains -----

std::vector<std::uint8_t>
ramp(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i * 7);
    return out;
}

/** A packet and what it should equal, compared field by field. */
void
expectSamePacket(const proto::Packet &got, const proto::Packet &want)
{
    EXPECT_EQ(got.hdr.op, want.hdr.op);
    EXPECT_EQ(got.hdr.src, want.hdr.src);
    EXPECT_EQ(got.hdr.dst, want.hdr.dst);
    EXPECT_EQ(got.hdr.slot, want.hdr.slot);
    EXPECT_EQ(got.hdr.blockIndex, want.hdr.blockIndex);
    EXPECT_EQ(got.hdr.totalBlocks, want.hdr.totalBlocks);
    EXPECT_EQ(got.hdr.msgBytes, want.hdr.msgBytes);
    EXPECT_EQ(got.hdr.connClient, want.hdr.connClient);
    EXPECT_EQ(std::vector<std::uint8_t>(got.payload.begin(),
                                        got.payload.end()),
              std::vector<std::uint8_t>(want.payload.begin(),
                                        want.payload.end()));
}

TEST(Fabric, TrainReachesANodeWithoutATrainSinkBlockByBlock)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(100));
    std::vector<proto::Packet> got;
    std::vector<Tick> at;
    fabric.connect(1, [&](const proto::Packet &pkt) {
        got.push_back(pkt);
        at.push_back(sim.now());
    });
    const auto data = ramp(300);
    proto::Train train;
    proto::makeTrain(train, proto::OpType::Send, 0, 1, 2, data);
    train.hdr.connClient = 9;
    fabric.send(train);
    sim.run();
    // The packets makePacket would have built, all at the latency, in
    // block order, on one event.
    auto want = proto::packetize(proto::OpType::Send, 0, 1, 2, data);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < want.size(); ++b) {
        want[b].hdr.connClient = 9;
        expectSamePacket(got[b], want[b]);
        EXPECT_EQ(at[b], nanoseconds(100));
    }
    EXPECT_EQ(fabric.delivered(), 5u);
    EXPECT_EQ(sim.executedEvents(), 1u);
}

TEST(Fabric, TrainSinkTakesTheWholeTrain)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(100));
    int packets = 0;
    std::vector<std::uint8_t> got;
    std::uint32_t blocks = 0;
    fabric.connect(1, [&](proto::Train &train) {
        if (!train.whole())
            ++packets;
        blocks = train.blocks();
        got.swap(train.bytes);
    });
    const auto data = ramp(300);
    proto::Train train;
    proto::makeTrain(train, proto::OpType::Send, 0, 1, 2, data);
    fabric.send(train);
    // The bytes moved into the event; the caller holds a spare buffer.
    EXPECT_TRUE(train.bytes.empty());
    sim.run();
    EXPECT_EQ(packets, 0);
    EXPECT_EQ(blocks, 5u);
    EXPECT_EQ(got, data);
    EXPECT_EQ(fabric.delivered(), 5u);
}

/** Counts what it sees; never acts. */
struct CountingPerturber : net::PacketPerturber
{
    int seen = 0;
    Verdict
    perturb(proto::Packet &, sim::DomainId, sim::Tick) override
    {
        ++seen;
        return {};
    }
};

TEST(Fabric, PerturbedAndCrossDomainTrainsTravelBlockByBlock)
{
    const auto data = ramp(200);
    {
        Simulator sim;
        Fabric fabric(sim, nanoseconds(100));
        CountingPerturber perturber;
        fabric.setPerturber(&perturber);
        EXPECT_FALSE(fabric.fusesTrains());
        int packets = 0;
        int trains = 0;
        fabric.connect(1, [&](proto::Train &train) {
            if (train.whole())
                ++trains;
            else
                ++packets;
        });
        proto::Train train;
        proto::makeTrain(train, proto::OpType::Send, 0, 1, 0, data);
        fabric.send(train);
        sim.run();
        EXPECT_EQ(perturber.seen, 4);
        EXPECT_EQ(packets, 4);
        EXPECT_EQ(trains, 0);
        EXPECT_EQ(sim.executedEvents(), 4u);
    }
    {
        sim::EventDomain d0(0, "d0");
        sim::EventDomain d1(1, "d1");
        Fabric fabric({&d0, &d1}, nanoseconds(100));
        fabric.assignNode(1, 1);
        int packets = 0;
        int trains = 0;
        fabric.connect(1, [&](proto::Train &train) {
            if (train.whole())
                ++trains;
            else
                ++packets;
        });
        proto::Train train;
        proto::makeTrain(train, proto::OpType::Send, 0, 1, 0, data);
        fabric.send(train);
        EXPECT_EQ(fabric.crossDomainMail(), 4u);
        fabric.closeWindow(nanoseconds(200));
        fabric.drainInbox(1);
        d1.run();
        EXPECT_EQ(packets, 4);
        EXPECT_EQ(trains, 0);
    }
}

TEST(Fabric, LonePacketArrivesAsAOnePacketTrain)
{
    // Block 2 of a 200 B message, sent on its own: the sink sees that
    // packet, header and bytes, as a train that is not whole.
    Simulator sim;
    Fabric fabric(sim, nanoseconds(100));
    const auto data = ramp(200);
    proto::Packet pkt;
    proto::makePacket(pkt, proto::OpType::Send, 0, 1, 3, data, 2);
    std::vector<proto::Packet> got;
    fabric.connect(1, [&](proto::Train &train) {
        EXPECT_FALSE(train.whole());
        ASSERT_EQ(train.blocks(), 1u);
        got.emplace_back();
        proto::trainPacket(train, 0, got.back());
    });
    fabric.send(pkt);
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    expectSamePacket(got[0], pkt);
    EXPECT_EQ(fabric.delivered(), 1u);
}

/** Flips the first payload byte of every packet it sees. */
struct FlippingPerturber : net::PacketPerturber
{
    Verdict
    perturb(proto::Packet &pkt, sim::DomainId, sim::Tick) override
    {
        pkt.payload[0] ^= 0xFF;
        return {};
    }
};

TEST(Fabric, APerturberMutatesACopyNotTheSendersPacket)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(100));
    FlippingPerturber perturber;
    fabric.setPerturber(&perturber);
    std::vector<std::uint8_t> got;
    fabric.connect(1, [&](const proto::Packet &pkt) {
        got.assign(pkt.payload.begin(), pkt.payload.end());
    });
    proto::Packet pkt;
    proto::makePacket(pkt, proto::OpType::Send, 0, 1, 0, ramp(8), 0);
    fabric.send(pkt);
    sim.run();
    ASSERT_EQ(got.size(), 8u);
    EXPECT_EQ(got[0], static_cast<std::uint8_t>(ramp(8)[0] ^ 0xFF));
    EXPECT_EQ(pkt.payload[0], ramp(8)[0]);
}

TEST(FabricDeath, DuplicateNodeRegistrationIsFatal)
{
    // connect() used to silently overwrite an existing sink, which
    // dropped the first receiver's traffic; duplicates now die loudly
    // like the registries' duplicate keys.
    Simulator sim;
    Fabric fabric(sim, nanoseconds(10));
    fabric.connect(4, [](proto::Packet) {});
    EXPECT_EXIT(fabric.connect(4, [](proto::Packet) {}),
                ::testing::ExitedWithCode(1),
                "node 4 is already connected");
}

TEST(FabricDeath, UnconnectedDestinationIsFatal)
{
    // A misaddressed packet used to trip a bare assert; it now dies
    // via sim::fatal with a message naming the source node, the
    // destination node, and the opcode — enough to identify the
    // mis-wired component in a multi-node topology.
    Simulator sim;
    Fabric fabric(sim, nanoseconds(10));
    proto::Packet pkt = packetTo(3);
    pkt.hdr.src = 9;
    fabric.send(std::move(pkt));
    EXPECT_EXIT(sim.run(), ::testing::ExitedWithCode(1),
                "send packet from node 9 addressed to unconnected "
                "node 3");
}

TEST(FabricDeath, GapAndFarDestinationsAreFatal)
{
    // The sink table is dense by node id: an id between connected
    // nodes and one far past the highest must both still reach the
    // unconnected-node fatal rather than read past the table.
    for (const proto::NodeId dst :
         {proto::NodeId{3}, proto::NodeId{1u << 30}}) {
        Simulator sim;
        Fabric fabric(sim, nanoseconds(10));
        fabric.connect(0, [](proto::Packet) {});
        fabric.connect(5, [](proto::Packet) {});
        proto::Packet pkt = packetTo(dst);
        pkt.hdr.src = 5;
        fabric.send(std::move(pkt));
        EXPECT_EXIT(sim.run(), ::testing::ExitedWithCode(1),
                    "from node 5 addressed to unconnected node " +
                        std::to_string(dst));
    }
}

TEST(FabricDeath, DepartureInThePastIsFatal)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(100));
    fabric.connect(1, [](proto::Packet) {});
    sim.scheduleAt(nanoseconds(50), [] {});
    sim.run();
    proto::Train train;
    proto::makeTrain(train, proto::OpType::Send, 0, 1, 0, ramp(8));
    EXPECT_DEATH(fabric.send(train, nanoseconds(40)),
                 "train departs in the past");
}

TEST(FabricDeath, DuplicateDomainAssignmentIsFatal)
{
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    Fabric fabric({&d0, &d1}, nanoseconds(100));
    fabric.assignNode(2, 1);
    EXPECT_EXIT(fabric.assignNode(2, 0), ::testing::ExitedWithCode(1),
                "node 2 is already assigned to a domain");
}

/** Post a 64 B message tagged @p tag from @p src to @p dst at @p at. */
void
postAt(Fabric &fabric, sim::EventDomain &dom, proto::NodeId src,
       proto::NodeId dst, Tick at, std::uint8_t tag)
{
    dom.scheduleAt(at, [&fabric, src, dst, tag] {
        proto::Packet pkt;
        proto::makePacket(pkt, proto::OpType::Send, src, dst, 0,
                          std::vector<std::uint8_t>(64, tag), 0);
        fabric.send(pkt);
    });
}

/** One delivered packet: arrival time, source node, payload tag. */
struct Arrival
{
    Tick at;
    proto::NodeId src;
    std::uint8_t tag;

    bool
    operator==(const Arrival &o) const
    {
        return at == o.at && src == o.src && tag == o.tag;
    }
};

/** Sink appending each packet's Arrival on @p dom to @p seen. */
Fabric::PacketSink
recordInto(std::vector<Arrival> &seen, const sim::EventDomain &dom)
{
    return [&seen, &dom](const proto::Packet &pkt) {
        seen.push_back(Arrival{dom.now(), pkt.hdr.src, pkt.payload[0]});
    };
}

TEST(Fabric, DrainOrdersByTimeSourceDomainAndPostingOrder)
{
    // Nodes 0 and 1 post from domains 0 and 1 to node 2 on domain 2.
    // Domain 2's drain delivers by time, then posting domain, then
    // posting order — and each packet's block survives the sort.
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    sim::EventDomain d2(2, "d2");
    const Tick latency = nanoseconds(100);
    Fabric fabric({&d0, &d1, &d2}, latency);
    fabric.assignNode(1, 1);
    fabric.assignNode(2, 2);

    struct Seen
    {
        Tick at;
        proto::NodeId src;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<Seen> seen;
    fabric.connect(2, [&](proto::Packet pkt) {
        seen.push_back(Seen{d2.now(), pkt.hdr.src,
                            std::vector<std::uint8_t>(pkt.payload.begin(),
                                                      pkt.payload.end())});
    });

    auto message = [](std::uint8_t tag) {
        return std::vector<std::uint8_t>(64, tag);
    };
    // Domain 1 posts first in wall-clock order; the sort must not care.
    postAt(fabric, d1, 1, 2, 0, 0xA1);
    postAt(fabric, d1, 1, 2, 0, 0xA2);
    postAt(fabric, d1, 1, 2, nanoseconds(10), 0xA3);
    postAt(fabric, d0, 0, 2, 0, 0xB1);
    postAt(fabric, d0, 0, 2, 0, 0xB2);
    postAt(fabric, d0, 0, 2, nanoseconds(50), 0xB3);
    d1.runUntil(latency - 1);
    d0.runUntil(latency - 1);

    fabric.closeWindow(2 * latency);
    fabric.drainInbox(2);
    d2.run();

    const std::vector<Seen> want = {
        {latency, 0, message(0xB1)},
        {latency, 0, message(0xB2)},
        {latency, 1, message(0xA1)},
        {latency, 1, message(0xA2)},
        {latency + nanoseconds(10), 1, message(0xA3)},
        {latency + nanoseconds(50), 0, message(0xB3)},
    };
    ASSERT_EQ(seen.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(seen[i].at, want[i].at);
        EXPECT_EQ(seen[i].src, want[i].src);
        EXPECT_EQ(seen[i].bytes, want[i].bytes);
    }
    EXPECT_EQ(fabric.delivered(), want.size());
    EXPECT_EQ(fabric.crossDomainMail(), want.size());
}

TEST(Fabric, DrainingOneDestinationLeavesTheOthersParked)
{
    // Domain 0 posts to nodes on domains 1 and 2. Draining domain 1
    // schedules only its own mail; domain 2's stays parked, in order,
    // until domain 2's own drain.
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    sim::EventDomain d2(2, "d2");
    const Tick latency = nanoseconds(100);
    Fabric fabric({&d0, &d1, &d2}, latency);
    fabric.assignNode(1, 1);
    fabric.assignNode(2, 2);
    std::vector<Arrival> at1;
    std::vector<Arrival> at2;
    fabric.connect(1, recordInto(at1, d1));
    fabric.connect(2, recordInto(at2, d2));

    postAt(fabric, d0, 0, 2, nanoseconds(20), 0x23);
    postAt(fabric, d0, 0, 1, 0, 0x11);
    postAt(fabric, d0, 0, 2, 0, 0x21);
    postAt(fabric, d0, 0, 2, 0, 0x22);
    postAt(fabric, d0, 0, 1, nanoseconds(5), 0x12);
    d0.runUntil(latency - 1);
    fabric.closeWindow(2 * latency);
    EXPECT_EQ(fabric.parkedMail(), 5u);

    fabric.drainInbox(1);
    EXPECT_EQ(fabric.parkedMail(), 3u);
    EXPECT_EQ(d2.pendingEvents(), 0u);
    d1.runUntil(2 * latency - 1);
    const std::vector<Arrival> want1 = {
        {latency, 0, 0x11},
        {latency + nanoseconds(5), 0, 0x12},
    };
    EXPECT_EQ(at1, want1);
    EXPECT_TRUE(at2.empty());

    fabric.drainInbox(2);
    EXPECT_EQ(fabric.parkedMail(), 0u);
    d2.runUntil(2 * latency - 1);
    const std::vector<Arrival> want2 = {
        {latency, 0, 0x21},
        {latency, 0, 0x22},
        {latency + nanoseconds(20), 0, 0x23},
    };
    EXPECT_EQ(at2, want2);
}

TEST(Fabric, MailOfTheNextWindowIsNeverDrainedWithThisWindowsMail)
{
    // Bank parity: in window 1 domain 0 posts again before domain 1
    // has drained window 0's mail (a worker may run domain 0 first).
    // That drain must take window 0's mail only; window 1's waits
    // for the next barrier.
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    const Tick latency = nanoseconds(100);
    Fabric fabric({&d0, &d1}, latency);
    fabric.assignNode(1, 1);
    std::vector<Arrival> seen;
    fabric.connect(1, recordInto(seen, d1));

    postAt(fabric, d0, 0, 1, nanoseconds(10), 0x01);
    d0.runUntil(latency - 1);
    fabric.closeWindow(2 * latency);

    postAt(fabric, d0, 0, 1, latency + nanoseconds(10), 0x02);
    fabric.drainInbox(0);
    d0.runUntil(2 * latency - 1);
    fabric.drainInbox(1);
    EXPECT_EQ(fabric.parkedMail(), 0u);
    d1.runUntil(2 * latency - 1);
    const Arrival first{latency + nanoseconds(10), 0, 0x01};
    EXPECT_EQ(seen, std::vector<Arrival>{first});
    EXPECT_EQ(d1.pendingEvents(), 0u);

    fabric.closeWindow(3 * latency);
    EXPECT_EQ(fabric.parkedMail(), 1u);
    fabric.drainInbox(1);
    d1.runUntil(3 * latency - 1);
    const Arrival second{2 * latency + nanoseconds(10), 0, 0x02};
    EXPECT_EQ(seen, (std::vector<Arrival>{first, second}));
}

TEST(Fabric, ParkedMailCountsAsPendingWork)
{
    // After the barrier closes a window its mail sits in the fabric,
    // not in any wheel. The parallel run loop's "drained" check must
    // see it there, or it would declare a live run dead.
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    const Tick latency = nanoseconds(100);
    Fabric fabric({&d0, &d1}, latency);
    fabric.assignNode(1, 1);
    std::vector<Arrival> seen;
    fabric.connect(1, recordInto(seen, d1));

    postAt(fabric, d0, 0, 1, 0, 0x01);
    d0.runUntil(latency - 1);
    fabric.closeWindow(2 * latency);
    EXPECT_EQ(d0.pendingEvents(), 0u);
    EXPECT_EQ(d1.pendingEvents(), 0u);
    EXPECT_EQ(fabric.parkedMail(), 1u);

    fabric.drainInbox(1);
    EXPECT_EQ(fabric.parkedMail(), 0u);
    EXPECT_EQ(d1.pendingEvents(), 1u);
    d1.run();
    EXPECT_EQ(seen.size(), 1u);
}

TEST(Fabric, DomainLocalTrafficIsNotCrossDomainMail)
{
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    Fabric fabric({&d0, &d1}, nanoseconds(100));
    fabric.assignNode(1, 1);
    int local = 0;
    fabric.connect(2, [&](proto::Packet) { ++local; });
    postAt(fabric, d0, 0, 2, 0, 0x01);
    d0.run();
    EXPECT_EQ(local, 1);
    EXPECT_EQ(fabric.crossDomainMail(), 0u);
    EXPECT_EQ(fabric.parkedMail(), 0u);
}

// ----- departures: send(train, depart) -----

TEST(Fabric, SameDomainDepartureSchedulesOnlyTheDelivery)
{
    // Unperturbed within one domain, the delivery is scheduled as the
    // train is handed over, at its departure plus latency: no event
    // fires on the source side.
    Simulator sim;
    Fabric fabric(sim, nanoseconds(100));
    std::vector<Tick> at;
    std::vector<std::uint8_t> got;
    fabric.connect(1, [&](proto::Train &train) {
        at.push_back(sim.now());
        got.swap(train.bytes);
    });
    const auto data = ramp(300);
    proto::Train train;
    proto::makeTrain(train, proto::OpType::Send, 0, 1, 2, data);
    fabric.send(train, nanoseconds(40));
    // The bytes moved into the delivery event.
    EXPECT_TRUE(train.bytes.empty());
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(at, std::vector<Tick>{nanoseconds(140)});
    EXPECT_EQ(got, data);
    EXPECT_EQ(sim.executedEvents(), 1u);
    EXPECT_EQ(fabric.delivered(), 5u);
}

/** Records the tick of every packet it sees; never acts. */
struct TimingPerturber : net::PacketPerturber
{
    std::vector<Tick> seenAt;
    Verdict
    perturb(proto::Packet &, sim::DomainId, sim::Tick now) override
    {
        seenAt.push_back(now);
        return {};
    }
};

/** What node 1 received in departureScenario(), and when the
 *  perturber (if any) saw each packet. */
struct DepartureRun
{
    std::vector<Arrival> arrivals;
    std::vector<Tick> perturbedAt;
};

/**
 * Three sends from domain 0 depart at 40 ns toward node 1: a lone
 * packet from node 2 whose send was scheduled first, a 3-block train
 * from node 0 handed over at 10 ns, and a lone packet from node 3
 * whose send was scheduled at 20 ns. With @p handoff the train goes
 * through send(train, 40 ns); otherwise an event calls send(train) at
 * 40 ns. @p cross_domain puts node 1 on domain 1 (mail); otherwise one
 * domain carries all, with a perturber attached.
 */
DepartureRun
departureScenario(bool handoff, bool cross_domain)
{
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    const Tick latency = nanoseconds(100);
    const Tick depart = nanoseconds(40);
    Fabric fabric(cross_domain ? std::vector<sim::EventDomain *>{&d0, &d1}
                               : std::vector<sim::EventDomain *>{&d0},
                  latency);
    TimingPerturber perturber;
    sim::EventDomain &dst = cross_domain ? d1 : d0;
    if (cross_domain)
        fabric.assignNode(1, 1);
    else
        fabric.setPerturber(&perturber);
    DepartureRun run;
    fabric.connect(1, recordInto(run.arrivals, dst));

    postAt(fabric, d0, 2, 1, depart, 0x21);
    proto::Train train;
    proto::makeTrain(train, proto::OpType::Send, 0, 1, 0, ramp(150));
    d0.scheduleAt(nanoseconds(10), [&] {
        if (handoff) {
            fabric.send(train, depart);
            return;
        }
        d0.scheduleAt(depart, [&] { fabric.send(train); });
    });
    d0.scheduleAt(nanoseconds(20),
                  [&] { postAt(fabric, d0, 3, 1, depart, 0x31); });
    if (cross_domain) {
        d0.runUntil(latency - 1);
        fabric.closeWindow(2 * latency);
        fabric.drainInbox(1);
    }
    dst.run();
    run.perturbedAt = perturber.seenAt;
    return run;
}

/** The arrivals departureScenario() must show either way. */
std::vector<Arrival>
departureArrivals()
{
    const Tick at = nanoseconds(140);
    const auto data = ramp(150);
    return {{at, 2, 0x21},
            {at, 0, data[0]},
            {at, 0, data[64]},
            {at, 0, data[128]},
            {at, 3, 0x31}};
}

TEST(Fabric, PerturbedDepartureIsPerturbedAtItsTick)
{
    // A perturber must see each packet at its posting tick, in posting
    // order: the train waits on a departure event, so it is perturbed
    // at 40 ns between the two lone packets, as a send at 40 ns is.
    const DepartureRun handoff = departureScenario(true, false);
    const DepartureRun atDeparture = departureScenario(false, false);
    EXPECT_EQ(handoff.arrivals, departureArrivals());
    EXPECT_EQ(handoff.arrivals, atDeparture.arrivals);
    EXPECT_EQ(handoff.perturbedAt, std::vector<Tick>(5, nanoseconds(40)));
    EXPECT_EQ(handoff.perturbedAt, atDeparture.perturbedAt);
}

TEST(Fabric, CrossDomainDepartureIsPostedAtItsTick)
{
    // Mail drains in (time, source domain, posting order) order, so a
    // train posted at hand-off (10 ns) would overtake the packet whose
    // send was scheduled first. Posted by its departure event, it
    // lands in the batch exactly where a send at 40 ns puts it.
    const DepartureRun handoff = departureScenario(true, true);
    const DepartureRun atDeparture = departureScenario(false, true);
    EXPECT_EQ(handoff.arrivals, departureArrivals());
    EXPECT_EQ(handoff.arrivals, atDeparture.arrivals);
}

/**
 * Spin barrier for a fixed set of threads. The last thread to arrive
 * runs @p onLast while the others wait, then releases them; the
 * acquire/release pairs order everything before the barrier before
 * everything after it, as core::WindowPool's barrier does.
 */
class WindowBarrier
{
  public:
    WindowBarrier(unsigned parties, std::function<void()> onLast)
        : parties_(parties), onLast_(std::move(onLast))
    {}

    void
    arrive()
    {
        const std::uint64_t gen = generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            onLast_();
            generation_.fetch_add(1, std::memory_order_release);
            return;
        }
        while (generation_.load(std::memory_order_acquire) == gen)
            std::this_thread::yield();
    }

  private:
    const unsigned parties_;
    std::function<void()> onLast_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

/**
 * Domains 1 and 2 each post to a node on domain 0 every quarter
 * window for @p windows windows; returns domain 0's arrivals. With
 * @p threaded each domain runs on a thread of its own, so domain 0
 * drains the closed bank while the sources post into the open one;
 * otherwise one thread runs the same windows domain by domain.
 */
std::vector<Arrival>
postAcrossWindows(bool threaded, unsigned windows)
{
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    sim::EventDomain d2(2, "d2");
    const std::vector<sim::EventDomain *> doms{&d0, &d1, &d2};
    const Tick latency = nanoseconds(100);
    Fabric fabric(doms, latency);
    fabric.assignNode(1, 1);
    fabric.assignNode(2, 2);
    std::vector<Arrival> seen;
    fabric.connect(0, recordInto(seen, d0));

    for (unsigned w = 0; w < windows; ++w) {
        for (unsigned q = 0; q < 4; ++q) {
            const Tick at = w * latency + q * (latency / 4);
            const auto tag = static_cast<std::uint8_t>(w * 4 + q);
            postAt(fabric, d1, 1, 0, at, tag);
            postAt(fabric, d2, 2, 0, at + (q % 2), tag);
        }
    }
    // One extra window delivers the last window's mail.
    const auto runWindow = [&](sim::EventDomain &d, unsigned w) {
        fabric.drainInbox(d.id());
        d.runUntil((w + 1) * latency - 1);
    };
    if (threaded) {
        unsigned closing = 0;
        WindowBarrier barrier(static_cast<unsigned>(doms.size()), [&] {
            fabric.closeWindow((++closing + 1) * latency);
        });
        std::vector<std::thread> threads;
        for (sim::EventDomain *d : doms) {
            threads.emplace_back([&, d] {
                for (unsigned w = 0; w <= windows; ++w) {
                    runWindow(*d, w);
                    barrier.arrive();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    } else {
        for (unsigned w = 0; w <= windows; ++w) {
            for (sim::EventDomain *d : doms)
                runWindow(*d, w);
            fabric.closeWindow((w + 2) * latency);
        }
    }
    EXPECT_EQ(fabric.crossDomainMail(), 8u * windows);
    EXPECT_EQ(fabric.parkedMail(), 0u);
    return seen;
}

TEST(FabricThreaded, SourcesPostWhileAWorkerDrainsTheClosedBank)
{
    // Two source domains post into the open bank while a third thread
    // drains the closed one (the ThreadSanitizer job runs this). The
    // arrivals must match the one-thread schedule exactly.
    constexpr unsigned kWindows = 200;
    const std::vector<Arrival> oneThread = postAcrossWindows(false, kWindows);
    ASSERT_EQ(oneThread.size(), 8u * kWindows);
    EXPECT_EQ(postAcrossWindows(true, kWindows), oneThread);
}

} // namespace
