/**
 * @file
 * Unit tests for send/receive buffers: slot lifecycle, reassembly
 * counters, and protocol-violation detection.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/buffers.hh"
#include "proto/packet.hh"

namespace {

using namespace rpcvalet;
using mem::RecvBuffer;
using mem::SendBuffer;
using proto::MessagingDomain;
using proto::OpType;

MessagingDomain
smallDomain()
{
    MessagingDomain d;
    d.numNodes = 4;
    d.slotsPerNode = 2;
    d.maxMsgBytes = 256;
    return d;
}

std::vector<std::uint8_t>
bytes(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(seed + i);
    return out;
}

// ----------------------------------------------------------- SendBuffer

TEST(SendBuffer, ReleaseMakesSlotReusable)
{
    SendBuffer sb(smallDomain());
    ASSERT_TRUE(sb.acquireSpecific(1, 0, bytes(5)));
    ASSERT_TRUE(sb.acquireSpecific(1, 1, bytes(5)));
    sb.release(1, 0);
    EXPECT_FALSE(sb.slotBusy(1, 0));
    EXPECT_TRUE(sb.slotBusy(1, 1));
    EXPECT_TRUE(sb.acquireSpecific(1, 0, bytes(5)));
}

TEST(SendBuffer, PayloadRoundTrips)
{
    SendBuffer sb(smallDomain());
    const auto payload = bytes(100, 42);
    ASSERT_TRUE(sb.acquireSpecific(3, 1, payload));
    EXPECT_EQ(sb.payload(3, 1), payload);
}

TEST(SendBuffer, AcquireSpecificSucceedsOnFreeSlot)
{
    SendBuffer sb(smallDomain());
    EXPECT_TRUE(sb.acquireSpecific(1, 1, bytes(8)));
    EXPECT_EQ(sb.payload(1, 1), bytes(8));
    EXPECT_FALSE(sb.acquireSpecific(1, 1, bytes(8)));
    // The same slot number toward another destination is its own slot.
    EXPECT_TRUE(sb.acquireSpecific(2, 1, bytes(8)));
    sb.release(1, 1);
    EXPECT_TRUE(sb.acquireSpecific(1, 1, bytes(9)));
}

TEST(SendBufferDeath, DoubleReleasePanics)
{
    SendBuffer sb(smallDomain());
    ASSERT_TRUE(sb.acquireSpecific(1, 0, bytes(1)));
    sb.release(1, 0);
    EXPECT_DEATH(sb.release(1, 0), "free send slot");
}

TEST(SendBufferDeath, OversizedPayloadPanics)
{
    SendBuffer sb(smallDomain());
    EXPECT_DEATH((void)sb.acquireSpecific(1, 0, bytes(257)),
                 "maxMsgBytes");
}

// ----------------------------------------------------------- RecvBuffer

proto::Packet
sendPacket(proto::NodeId src, std::uint32_t slot, std::uint32_t block,
           std::uint32_t total, std::uint32_t msg_bytes)
{
    proto::Packet pkt;
    pkt.hdr.op = OpType::Send;
    pkt.hdr.src = src;
    pkt.hdr.dst = 0;
    pkt.hdr.slot = slot;
    pkt.hdr.blockIndex = block;
    pkt.hdr.totalBlocks = total;
    pkt.hdr.msgBytes = msg_bytes;
    const std::uint32_t lo = block * proto::cacheBlockBytes;
    const std::uint32_t hi =
        std::min(lo + proto::cacheBlockBytes, msg_bytes);
    for (std::uint32_t i = lo; i < hi; ++i)
        pkt.payload.push_back(static_cast<std::uint8_t>(i & 0xff));
    return pkt;
}

/** One packet that enters and leaves the NI pipeline at @p now: stage
 *  it, claim the slot if it is the message's first. Returns whether
 *  it completes the message. */
bool
arrive(RecvBuffer &rb, const proto::Packet &pkt, sim::Tick now)
{
    const mem::Staged staged = rb.stage(pkt, now);
    if (staged.claims)
        rb.claim(rb.domain().slotIndex(pkt.hdr.src, pkt.hdr.slot));
    return staged.completes;
}

TEST(RecvBuffer, StagingMarksFirstAndLastReceivedOnly)
{
    // Only the first-received packet claims and only the last-received
    // completes; the middle blocks carry no pipeline-exit work.
    RecvBuffer rb(smallDomain());
    const auto idx = rb.domain().slotIndex(2, 1);
    const mem::Staged first = rb.stage(sendPacket(2, 1, 1, 4, 200), 10);
    EXPECT_TRUE(first.claims);
    EXPECT_FALSE(first.completes);
    // Staged but not claimed: the slot is busy only from the first
    // packet's pipeline exit.
    EXPECT_FALSE(rb.slot(idx).busy);
    EXPECT_EQ(rb.busyCount(), 0u);
    for (std::uint32_t b : {3u, 0u}) {
        const mem::Staged middle = rb.stage(sendPacket(2, 1, b, 4, 200), 11);
        EXPECT_FALSE(middle.claims);
        EXPECT_FALSE(middle.completes);
    }
    rb.claim(idx);
    EXPECT_TRUE(rb.slot(idx).busy);
    EXPECT_EQ(rb.busyCount(), 1u);
    const mem::Staged last = rb.stage(sendPacket(2, 1, 2, 4, 200), 12);
    EXPECT_FALSE(last.claims);
    EXPECT_TRUE(last.completes);
    EXPECT_EQ(rb.slot(idx).firstPacketTick, 10u);
    EXPECT_EQ(rb.slot(idx).arrivedBlocks, 4u);
    for (std::uint32_t i = 0; i < 200; ++i)
        EXPECT_EQ(rb.slot(idx).payload[i], static_cast<std::uint8_t>(i & 0xff));
}

TEST(RecvBuffer, SinglePacketMessageCompletesImmediately)
{
    RecvBuffer rb(smallDomain());
    EXPECT_TRUE(arrive(rb, sendPacket(1, 0, 0, 1, 48), 100));
    const auto &slot = rb.slot(rb.domain().slotIndex(1, 0));
    EXPECT_TRUE(slot.busy);
    EXPECT_EQ(slot.msgBytes, 48u);
    EXPECT_EQ(slot.firstPacketTick, 100u);
}

TEST(RecvBuffer, MultiPacketCompletesOnLastBlock)
{
    RecvBuffer rb(smallDomain());
    EXPECT_FALSE(arrive(rb, sendPacket(2, 1, 0, 3, 160), 10));
    EXPECT_FALSE(arrive(rb, sendPacket(2, 1, 1, 3, 160), 20));
    EXPECT_TRUE(arrive(rb, sendPacket(2, 1, 2, 3, 160), 30));
    const auto &slot = rb.slot(rb.domain().slotIndex(2, 1));
    EXPECT_EQ(slot.firstPacketTick, 10u); // latency t0 = first packet
    EXPECT_EQ(slot.arrivedBlocks, 3u);
}

TEST(RecvBuffer, OutOfOrderArrivalStillCompletes)
{
    RecvBuffer rb(smallDomain());
    EXPECT_FALSE(arrive(rb, sendPacket(1, 0, 2, 3, 160), 10));
    EXPECT_FALSE(arrive(rb, sendPacket(1, 0, 0, 3, 160), 11));
    EXPECT_TRUE(arrive(rb, sendPacket(1, 0, 1, 3, 160), 12));
    // Payload bytes land at their block offsets regardless of order.
    const auto &slot = rb.slot(rb.domain().slotIndex(1, 0));
    for (std::uint32_t i = 0; i < 160; ++i)
        EXPECT_EQ(slot.payload[i], static_cast<std::uint8_t>(i & 0xff));
}

TEST(RecvBuffer, PayloadBytesFaithful)
{
    RecvBuffer rb(smallDomain());
    arrive(rb, sendPacket(3, 1, 0, 2, 100), 5);
    arrive(rb, sendPacket(3, 1, 1, 2, 100), 6);
    const auto &slot = rb.slot(rb.domain().slotIndex(3, 1));
    ASSERT_EQ(slot.payload.size(), 100u);
    for (std::uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(slot.payload[i], static_cast<std::uint8_t>(i & 0xff));
}

TEST(RecvBuffer, ReleaseAllowsSlotReuse)
{
    RecvBuffer rb(smallDomain());
    const auto idx = rb.domain().slotIndex(1, 0);
    arrive(rb, sendPacket(1, 0, 0, 1, 10), 1);
    EXPECT_EQ(rb.busyCount(), 1u);
    rb.release(idx);
    EXPECT_EQ(rb.busyCount(), 0u);
    arrive(rb, sendPacket(1, 0, 0, 1, 20), 2);
    EXPECT_EQ(rb.slot(idx).msgBytes, 20u);
    EXPECT_EQ(rb.slot(idx).firstPacketTick, 2u);
}

TEST(RecvBuffer, BusyHighWatermarkTracksPeak)
{
    RecvBuffer rb(smallDomain());
    arrive(rb, sendPacket(1, 0, 0, 1, 10), 1);
    arrive(rb, sendPacket(1, 1, 0, 1, 10), 2);
    arrive(rb, sendPacket(2, 0, 0, 1, 10), 3);
    rb.release(rb.domain().slotIndex(1, 0));
    EXPECT_EQ(rb.busyCount(), 2u);
    EXPECT_EQ(rb.busyHighWatermark(), 3u);
}

TEST(RecvBufferDeath, SlotReuseBeforeReplenishPanics)
{
    // A new message landing in a busy slot is a protocol violation:
    // the sender must wait for the replenish.
    RecvBuffer rb(smallDomain());
    arrive(rb, sendPacket(1, 0, 0, 1, 10), 1);
    EXPECT_DEATH((void)arrive(rb, sendPacket(1, 0, 0, 2, 80), 2),
                 "slot reused");
}

TEST(RecvBufferDeath, ReleaseFreeSlotPanics)
{
    RecvBuffer rb(smallDomain());
    EXPECT_DEATH(rb.release(0), "free recv slot");
}

/** A rendezvous slot: (1, 0)'s descriptor has completed and the slot
 *  awaits a pull of @p full_bytes. */
void
armPull(RecvBuffer &rb, std::uint32_t full_bytes)
{
    ASSERT_TRUE(arrive(rb, sendPacket(1, 0, 0, 1, 0), 1));
    rb.beginRendezvous(rb.domain().slotIndex(1, 0), full_bytes);
}

TEST(RecvBuffer, PullBlocksLandAtTheirOffsets)
{
    RecvBuffer rb(smallDomain());
    armPull(rb, 300);
    const auto data = bytes(300, 9);
    auto blocks = proto::packetize(OpType::ReadResponse, 1, 0, 0, data);
    std::reverse(blocks.begin(), blocks.end());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const mem::Staged staged = rb.stage(blocks[i], 2);
        EXPECT_FALSE(staged.claims);
        EXPECT_EQ(staged.completes, i + 1 == blocks.size());
    }
    EXPECT_EQ(rb.slot(rb.domain().slotIndex(1, 0)).payload, data);
}

TEST(RecvBufferDeath, OutOfRangeBlockPanics)
{
    // Block 3 of a 3-block message used to be dropped silently.
    RecvBuffer rb(smallDomain());
    EXPECT_DEATH((void)arrive(rb, sendPacket(1, 0, 3, 3, 160), 1),
                 "block index out of range");
}

TEST(RecvBufferDeath, OutOfRangePullBlockPanics)
{
    RecvBuffer rb(smallDomain());
    armPull(rb, 200);
    proto::Packet pkt;
    proto::makePacket(pkt, OpType::ReadResponse, 1, 0, 0, bytes(200), 0);
    pkt.hdr.blockIndex = pkt.hdr.totalBlocks;
    EXPECT_DEATH((void)rb.stage(pkt, 2), "block index out of range");
}

TEST(RecvBufferDeath, NonSendPacketPanics)
{
    RecvBuffer rb(smallDomain());
    proto::Packet pkt = sendPacket(1, 0, 0, 1, 10);
    pkt.hdr.op = OpType::Replenish;
    EXPECT_DEATH((void)arrive(rb, pkt, 1), "send packets");
}

} // namespace
