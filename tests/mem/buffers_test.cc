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

/** Stage @p pkt as it arrives: as the one-packet train the fabric
 *  makes of a lone packet. */
mem::Staged
stagePacket(RecvBuffer &rb, const proto::Packet &pkt, sim::Tick now)
{
    proto::Train train;
    proto::packetTrain(pkt, train);
    return rb.stage(train, now);
}

/** One packet that enters and leaves the NI pipeline at @p now: stage
 *  it, claim the slot if it is the message's first. Returns whether
 *  it completes the message. */
bool
arrive(RecvBuffer &rb, const proto::Packet &pkt, sim::Tick now)
{
    const mem::Staged staged = stagePacket(rb, pkt, now);
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
    const mem::Staged first =
        stagePacket(rb, sendPacket(2, 1, 1, 4, 200), 10);
    EXPECT_TRUE(first.claims);
    EXPECT_FALSE(first.completes);
    // Staged but not claimed: the slot is busy only from the first
    // packet's pipeline exit.
    EXPECT_FALSE(rb.slot(idx).busy);
    EXPECT_EQ(rb.busyCount(), 0u);
    for (std::uint32_t b : {3u, 0u}) {
        const mem::Staged middle =
            stagePacket(rb, sendPacket(2, 1, b, 4, 200), 11);
        EXPECT_FALSE(middle.claims);
        EXPECT_FALSE(middle.completes);
    }
    rb.claim(idx);
    EXPECT_TRUE(rb.slot(idx).busy);
    EXPECT_EQ(rb.busyCount(), 1u);
    const mem::Staged last =
        stagePacket(rb, sendPacket(2, 1, 2, 4, 200), 12);
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

TEST(RecvBuffer, SlotStorageIsTakenOnFirstUseAndKept)
{
    // A fresh buffer commits no payload storage; a slot's first
    // message sizes it, and release keeps that capacity for the next.
    RecvBuffer rb(smallDomain());
    for (std::uint32_t i = 0; i < rb.domain().totalSlots(); ++i)
        EXPECT_EQ(rb.slot(i).payload.capacity(), 0u) << i;
    const auto idx = rb.domain().slotIndex(2, 1);
    arrive(rb, sendPacket(2, 1, 0, 2, 100), 1);
    arrive(rb, sendPacket(2, 1, 1, 2, 100), 1);
    rb.release(idx);
    EXPECT_TRUE(rb.slot(idx).payload.empty());
    EXPECT_GE(rb.slot(idx).payload.capacity(), 100u);
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
        const mem::Staged staged = stagePacket(rb, blocks[i], 2);
        EXPECT_FALSE(staged.claims);
        EXPECT_EQ(staged.completes, i + 1 == blocks.size());
    }
    EXPECT_EQ(rb.slot(rb.domain().slotIndex(1, 0)).payload, data);
}

// ----------------------------------------------------------- trains

/** The slot state a message leaves: everything but the claim. */
void
expectSameSlot(const mem::RecvSlot &a, const mem::RecvSlot &b)
{
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.arrivedBlocks, b.arrivedBlocks);
    EXPECT_EQ(a.totalBlocks, b.totalBlocks);
    EXPECT_EQ(a.msgBytes, b.msgBytes);
    EXPECT_EQ(a.firstPacketTick, b.firstPacketTick);
    EXPECT_EQ(a.payload, b.payload);
}

TEST(RecvBuffer, TrainStagesLikeItsBlocks)
{
    // Block by block, block 0 claims and the last block completes; a
    // train reports both and leaves the slot byte for byte the same.
    for (const std::uint32_t size : {0u, 48u, 64u, 200u, 256u}) {
        SCOPED_TRACE(size);
        const auto data = bytes(size, 3);
        RecvBuffer perBlock(smallDomain());
        RecvBuffer whole(smallDomain());
        const auto pkts = proto::packetize(OpType::Send, 2, 0, 1, data);
        for (std::size_t b = 0; b < pkts.size(); ++b) {
            const mem::Staged staged = stagePacket(perBlock, pkts[b], 7);
            EXPECT_EQ(staged.claims, b == 0);
            EXPECT_EQ(staged.completes, b + 1 == pkts.size());
        }
        proto::Train train;
        proto::makeTrain(train, OpType::Send, 2, 0, 1, data);
        const mem::Staged staged = whole.stage(train, 7);
        EXPECT_TRUE(staged.claims);
        EXPECT_TRUE(staged.completes);
        const auto idx = whole.domain().slotIndex(2, 1);
        expectSameSlot(whole.slot(idx), perBlock.slot(idx));
        // The slot's old (empty) buffer came back with the train.
        EXPECT_TRUE(train.bytes.empty());
    }
}

TEST(RecvBuffer, OnePacketTrainOfALongerMessageStagesAsPlaceBlockWould)
{
    // A lone packet of a multi-block message is not whole: its block
    // is copied into a zeroed message buffer exactly where placeBlock
    // puts it, and it counts one block.
    const auto data = bytes(200, 5);
    const auto pkts = proto::packetize(OpType::Send, 2, 0, 1, data);
    ASSERT_EQ(pkts.size(), 4u);
    for (std::size_t b = 0; b < pkts.size(); ++b) {
        SCOPED_TRACE(b);
        RecvBuffer rb(smallDomain());
        proto::Train train;
        proto::packetTrain(pkts[b], train);
        ASSERT_FALSE(train.whole());
        ASSERT_EQ(train.blocks(), 1u);
        const mem::Staged staged = rb.stage(train, 4);
        EXPECT_TRUE(staged.claims);
        EXPECT_FALSE(staged.completes);
        std::vector<std::uint8_t> expected(data.size(), 0);
        proto::placeBlock(pkts[b], expected);
        const mem::RecvSlot &slot = rb.slot(rb.domain().slotIndex(2, 1));
        EXPECT_EQ(slot.payload, expected);
        EXPECT_EQ(slot.arrivedBlocks, 1u);
        EXPECT_EQ(slot.totalBlocks, 4u);
        EXPECT_EQ(slot.msgBytes, 200u);
        EXPECT_EQ(slot.firstPacketTick, 4u);
        // The block was copied, not swapped: the train keeps its bytes.
        EXPECT_EQ(train.bytes.size(), pkts[b].payload.size());
    }
}

TEST(RecvBuffer, PullTrainLandsLikeItsBlocks)
{
    RecvBuffer perBlock(smallDomain());
    RecvBuffer whole(smallDomain());
    armPull(perBlock, 300);
    armPull(whole, 300);
    const auto data = bytes(300, 9);
    for (const auto &pkt :
         proto::packetize(OpType::ReadResponse, 1, 0, 0, data))
        (void)stagePacket(perBlock, pkt, 2);
    proto::Train train;
    proto::makeTrain(train, OpType::ReadResponse, 1, 0, 0, data);
    const mem::Staged staged = whole.stage(train, 2);
    EXPECT_FALSE(staged.claims);
    EXPECT_TRUE(staged.completes);
    const auto idx = whole.domain().slotIndex(1, 0);
    expectSameSlot(whole.slot(idx), perBlock.slot(idx));
    EXPECT_EQ(whole.slot(idx).payload, data);
}

TEST(RecvBufferDeath, TrainOnABusySlotPanicsAsItsFirstBlockWould)
{
    // A slot awaiting its pull is busy with its counter re-armed: a
    // new send there is caught by the first-block check.
    RecvBuffer rb(smallDomain());
    armPull(rb, 300);
    proto::Train train;
    proto::makeTrain(train, OpType::Send, 1, 0, 0, bytes(80));
    const auto pkts = proto::packetize(OpType::Send, 1, 0, 0, bytes(80));
    EXPECT_DEATH((void)stagePacket(rb, pkts[0], 2),
                 "slot reused before replenish \\(slot busy\\)");
    EXPECT_DEATH((void)rb.stage(train, 2),
                 "slot reused before replenish \\(slot busy\\)");
    // A completed, unreleased slot of another size fails the block
    // count check instead, either way.
    RecvBuffer done(smallDomain());
    arrive(done, sendPacket(1, 0, 0, 1, 10), 1);
    EXPECT_DEATH((void)stagePacket(done, pkts[0], 2),
                 "slot reused before replenish \\(totalBlocks mismatch\\)");
    EXPECT_DEATH((void)done.stage(train, 2),
                 "slot reused before replenish \\(totalBlocks mismatch\\)");
}

TEST(RecvBufferDeath, PullTrainOfTheWrongSizePanicsAsItsBlocksWould)
{
    RecvBuffer rb(smallDomain());
    armPull(rb, 300);
    proto::Train train;
    proto::makeTrain(train, OpType::ReadResponse, 1, 0, 0, bytes(200));
    const auto pkts =
        proto::packetize(OpType::ReadResponse, 1, 0, 0, bytes(200));
    EXPECT_DEATH((void)stagePacket(rb, pkts[0], 2),
                 "read response size mismatch");
    EXPECT_DEATH((void)rb.stage(train, 2),
                 "read response size mismatch");
}

TEST(RecvBufferDeath, TrainOnAPartlyStagedSlotPanicsAsItsBlocksWould)
{
    // Two blocks of a message already in: the whole message again
    // overruns the counter either way.
    const auto data = bytes(200);
    const auto pkts = proto::packetize(OpType::Send, 1, 0, 0, data);
    RecvBuffer perBlock(smallDomain());
    RecvBuffer whole(smallDomain());
    for (RecvBuffer *rb : {&perBlock, &whole}) {
        (void)stagePacket(*rb, pkts[0], 1);
        (void)stagePacket(*rb, pkts[1], 1);
    }
    EXPECT_DEATH(
        {
            for (const auto &pkt : pkts)
                (void)stagePacket(perBlock, pkt, 2);
        },
        "more packets than blocks");
    proto::Train train;
    proto::makeTrain(train, OpType::Send, 1, 0, 0, data);
    EXPECT_DEATH((void)whole.stage(train, 2), "more packets than blocks");
}

TEST(RecvBufferDeath, OutOfRangeBlockPanics)
{
    // Block 3 of a 3-block message used to be dropped silently.
    RecvBuffer rb(smallDomain());
    EXPECT_DEATH((void)arrive(rb, sendPacket(1, 0, 3, 3, 160), 1),
                 "block index out of range");
    // A packet past a one-block message's end that still carries the
    // message's size is a stray block, not the whole message.
    proto::Packet stray = sendPacket(1, 0, 0, 1, 10);
    stray.hdr.blockIndex = 1;
    EXPECT_DEATH((void)arrive(rb, stray, 1), "block index out of range");
}

TEST(RecvBufferDeath, OutOfRangePullBlockPanics)
{
    RecvBuffer rb(smallDomain());
    armPull(rb, 200);
    proto::Packet pkt;
    proto::makePacket(pkt, OpType::ReadResponse, 1, 0, 0, bytes(200), 0);
    pkt.hdr.blockIndex = pkt.hdr.totalBlocks;
    EXPECT_DEATH((void)stagePacket(rb, pkt, 2), "block index out of range");
}

TEST(RecvBufferDeath, NonSendPacketPanics)
{
    RecvBuffer rb(smallDomain());
    proto::Packet pkt = sendPacket(1, 0, 0, 1, 10);
    pkt.hdr.op = OpType::Replenish;
    EXPECT_DEATH((void)arrive(rb, pkt, 1), "send packets");
}

} // namespace
