/**
 * @file
 * Unit tests for the inter-node fabric.
 */

#include <gtest/gtest.h>

#include <string>
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
    int to_default = 0;
    fabric.connect(0, [&](proto::Packet) { ++to_a; });
    fabric.connectDefault([&](proto::Packet) { ++to_default; });
    fabric.send(packetTo(0));
    fabric.send(packetTo(7));
    fabric.send(packetTo(42));
    sim.run();
    EXPECT_EQ(to_a, 1);
    EXPECT_EQ(to_default, 2);
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

TEST(FabricDeath, DuplicateDefaultRegistrationIsFatal)
{
    Simulator sim;
    Fabric fabric(sim, nanoseconds(10));
    fabric.connectDefault([](proto::Packet) {});
    EXPECT_EXIT(fabric.connectDefault([](proto::Packet) {}),
                ::testing::ExitedWithCode(1),
                "default sink is already connected");
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

TEST(FabricDeath, DuplicateDomainAssignmentIsFatal)
{
    sim::EventDomain d0(0, "d0");
    sim::EventDomain d1(1, "d1");
    Fabric fabric({&d0, &d1}, nanoseconds(100));
    fabric.assignNode(2, 1);
    EXPECT_EXIT(fabric.assignNode(2, 0), ::testing::ExitedWithCode(1),
                "node 2 is already assigned to a domain");
}

TEST(Fabric, ExchangeWindowOrdersByTimeSourceDomainAndPostingOrder)
{
    // Nodes 0 and 1 post from domains 0 and 1 to node 2 on domain 2.
    // At the barrier, mail is delivered by time, then posting domain,
    // then posting order — and each packet's block survives the sort.
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
    auto post = [&](sim::EventDomain &dom, proto::NodeId src, Tick at,
                    std::uint8_t tag) {
        dom.scheduleAt(at, [&fabric, src, tag, message] {
            proto::Packet pkt;
            proto::makePacket(pkt, proto::OpType::Send, src, 2, 0,
                              message(tag), 0);
            fabric.send(pkt);
        });
    };
    // Domain 1 posts first in wall-clock order; the sort must not care.
    post(d1, 1, 0, 0xA1);
    post(d1, 1, 0, 0xA2);
    post(d1, 1, nanoseconds(10), 0xA3);
    post(d0, 0, 0, 0xB1);
    post(d0, 0, 0, 0xB2);
    post(d0, 0, nanoseconds(50), 0xB3);
    d1.runUntil(latency - 1);
    d0.runUntil(latency - 1);

    fabric.exchangeWindow(2 * latency);
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
}

} // namespace
