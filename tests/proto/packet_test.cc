/**
 * @file
 * Unit tests for packetization and reassembly: the soNUMA unrolling of
 * messages into 64 B cache-block packets (§4.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "fault/packet_faults.hh"
#include "proto/packet.hh"

namespace {

using namespace rpcvalet::proto;

std::vector<std::uint8_t>
patternBytes(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return out;
}

// The packet carries its block inline: no heap memory, copied as bytes.
static_assert(std::is_trivially_copyable<Packet>::value,
              "a packet must be trivially copyable");
static_assert(sizeof(Packet) <= 128, "a packet must stay within 128 B");

TEST(Packetize, BlocksForBytesBoundaries)
{
    EXPECT_EQ(blocksForBytes(0), 1u);
    EXPECT_EQ(blocksForBytes(1), 1u);
    EXPECT_EQ(blocksForBytes(64), 1u);
    EXPECT_EQ(blocksForBytes(65), 2u);
    EXPECT_EQ(blocksForBytes(128), 2u);
    EXPECT_EQ(blocksForBytes(512), 8u);
    EXPECT_EQ(blocksForBytes(513), 9u);
}

TEST(Packetize, SingleBlockMessage)
{
    const auto payload = patternBytes(40);
    const auto packets = packetize(OpType::Send, 3, 0, 7, payload);
    ASSERT_EQ(packets.size(), 1u);
    EXPECT_EQ(packets[0].hdr.op, OpType::Send);
    EXPECT_EQ(packets[0].hdr.src, 3u);
    EXPECT_EQ(packets[0].hdr.dst, 0u);
    EXPECT_EQ(packets[0].hdr.slot, 7u);
    EXPECT_EQ(packets[0].hdr.blockIndex, 0u);
    EXPECT_EQ(packets[0].hdr.totalBlocks, 1u);
    EXPECT_EQ(packets[0].hdr.msgBytes, 40u);
    EXPECT_EQ(std::vector<std::uint8_t>(packets[0].payload.begin(),
                                        packets[0].payload.end()),
              payload);
}

TEST(Packetize, MultiBlockCarriesFullHeaderInEveryPacket)
{
    // §4.4: every packet carries the total message size so any NI
    // backend can detect completion statelessly.
    const auto payload = patternBytes(512);
    const auto packets = packetize(OpType::Send, 5, 0, 2, payload);
    ASSERT_EQ(packets.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(packets[i].hdr.blockIndex, i);
        EXPECT_EQ(packets[i].hdr.totalBlocks, 8u);
        EXPECT_EQ(packets[i].hdr.msgBytes, 512u);
        EXPECT_EQ(packets[i].payload.size(), 64u);
    }
}

TEST(Packetize, LastPacketHoldsRemainder)
{
    const auto payload = patternBytes(130); // 64 + 64 + 2
    const auto packets = packetize(OpType::Send, 1, 0, 0, payload);
    ASSERT_EQ(packets.size(), 3u);
    EXPECT_EQ(packets[0].payload.size(), 64u);
    EXPECT_EQ(packets[1].payload.size(), 64u);
    EXPECT_EQ(packets[2].payload.size(), 2u);
}

TEST(Packetize, EmptyPayloadStillOnePacket)
{
    // Replenish messages carry no payload but still need a packet.
    const auto packets = packetize(OpType::Replenish, 0, 9, 4, {});
    ASSERT_EQ(packets.size(), 1u);
    EXPECT_EQ(packets[0].hdr.msgBytes, 0u);
    EXPECT_TRUE(packets[0].payload.empty());
}

TEST(Packetize, BlockCountsAndLengths)
{
    struct Case
    {
        std::uint32_t bytes;
        std::vector<std::size_t> lengths;
    };
    const std::vector<Case> cases = {
        {0, {0}},
        {1, {1}},
        {63, {63}},
        {64, {64}},
        {65, {64, 1}},
        {1536, std::vector<std::size_t>(24, 64)},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.bytes);
        const auto packets =
            packetize(OpType::Send, 1, 0, 0, patternBytes(c.bytes));
        ASSERT_EQ(packets.size(), c.lengths.size());
        for (std::size_t b = 0; b < packets.size(); ++b) {
            EXPECT_EQ(packets[b].payload.size(), c.lengths[b]);
            EXPECT_EQ(packets[b].hdr.totalBlocks, c.lengths.size());
            EXPECT_EQ(packets[b].hdr.msgBytes, c.bytes);
        }
    }
}

TEST(MakePacket, PastMessageEndGivesEmptyBlock)
{
    // A recycled packet's stale header and bytes are all replaced.
    Packet pkt;
    pkt.hdr.rendezvous = true;
    pkt.hdr.connClient = 9;
    pkt.payload.assign(patternBytes(64).data(), 64);
    makePacket(pkt, OpType::Send, 2, 0, 1, patternBytes(100), 5);
    EXPECT_TRUE(pkt.payload.empty());
    EXPECT_EQ(pkt.hdr.blockIndex, 5u);
    EXPECT_EQ(pkt.hdr.totalBlocks, 2u);
    EXPECT_EQ(pkt.hdr.msgBytes, 100u);
    EXPECT_FALSE(pkt.hdr.rendezvous);
    EXPECT_EQ(pkt.hdr.connClient, noConnClient);
}

TEST(PacketCorrupt, FlipsTheReceiversCopyOnly)
{
    // A reply (server node 0 -> client node 3) corrupted in flight:
    // the receiver sees byte blockIndex * 64 flipped; the sender's
    // message and packets keep their bytes.
    rpcvalet::fault::PacketFaultConfig corrupt;
    corrupt.kind = rpcvalet::fault::PacketFaultConfig::Kind::Corrupt;
    corrupt.p = 1.0;
    rpcvalet::fault::PacketFaults faults({corrupt}, 1, 42, 0, 1);

    const auto message = patternBytes(300);
    const auto sent = packetize(OpType::Send, 0, 3, 2, message);
    auto received = sent;
    const auto verdict = faults.perturb(received[2], 0, 0);
    EXPECT_FALSE(verdict.drop);
    EXPECT_EQ(faults.corrupted(), 1u);

    auto expected = message;
    expected[2 * cacheBlockBytes] ^= 0x01;
    EXPECT_EQ(reassemble(received), expected);
    EXPECT_EQ(reassemble(sent), message);
}

TEST(PlaceBlock, CopiesOneBlockToItsOffset)
{
    const auto payload = patternBytes(150);
    const auto packets = packetize(OpType::Send, 1, 0, 0, payload);
    std::vector<std::uint8_t> msg(150, 0);
    placeBlock(packets[2], msg);
    for (std::size_t i = 0; i < msg.size(); ++i)
        EXPECT_EQ(msg[i], i >= 128 ? payload[i] : 0) << i;
}

TEST(PlaceBlockDeath, ReassembleRejectsOutOfRangeBlock)
{
    auto packets = packetize(OpType::Send, 1, 0, 0, patternBytes(100));
    packets[1].hdr.blockIndex = 2;
    EXPECT_DEATH(reassemble(packets), "block index out of range");
}

TEST(Reassemble, RoundTripsInOrder)
{
    const auto payload = patternBytes(300);
    const auto packets = packetize(OpType::Send, 2, 0, 1, payload);
    EXPECT_EQ(reassemble(packets), payload);
}

TEST(Reassemble, RoundTripsOutOfOrder)
{
    const auto payload = patternBytes(450);
    auto packets = packetize(OpType::Send, 2, 0, 1, payload);
    std::reverse(packets.begin(), packets.end());
    EXPECT_EQ(reassemble(packets), payload);
}

class PacketizeSizes : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PacketizeSizes, RoundTripAnySize)
{
    const auto payload = patternBytes(GetParam());
    const auto packets = packetize(OpType::Send, 7, 0, 3, payload);
    EXPECT_EQ(packets.size(), blocksForBytes(GetParam()));
    EXPECT_EQ(reassemble(packets), payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PacketizeSizes,
                         ::testing::Values(1u, 17u, 63u, 64u, 65u, 127u,
                                           128u, 500u, 512u, 1024u,
                                           2048u));

TEST(OpName, AllOpsNamed)
{
    EXPECT_EQ(opName(OpType::Send), "send");
    EXPECT_EQ(opName(OpType::Replenish), "replenish");
    EXPECT_EQ(opName(OpType::RemoteRead), "remote_read");
    EXPECT_EQ(opName(OpType::RemoteWrite), "remote_write");
}

} // namespace
