/**
 * @file
 * Unit tests for queue-pair entry types and the Fifo wrapper.
 */

#include <gtest/gtest.h>

#include <string>

#include "proto/qp.hh"

namespace {

using rpcvalet::proto::CompletionQueueEntry;
using rpcvalet::proto::Fifo;
using rpcvalet::proto::WorkQueueEntry;

TEST(Fifo, StartsEmpty)
{
    Fifo<int> f;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.highWatermark(), 0u);
}

TEST(Fifo, PushPopIsFifoOrdered)
{
    Fifo<int> f;
    for (int i = 0; i < 10; ++i)
        f.push(i);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(f.pop(), i);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, FrontPeeksWithoutRemoving)
{
    Fifo<int> f;
    f.push(7);
    f.push(8);
    EXPECT_EQ(f.front(), 7);
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.pop(), 7);
    EXPECT_EQ(f.front(), 8);
}

TEST(Fifo, HighWatermarkTracksPeakOccupancy)
{
    Fifo<int> f;
    f.push(1);
    f.push(2);
    f.push(3);
    f.pop();
    f.pop();
    f.push(4);
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.highWatermark(), 3u);
}

TEST(Fifo, ResetHighWatermarkRestartsFromCurrentOccupancy)
{
    Fifo<int> f;
    for (int i = 0; i < 5; ++i)
        f.push(i);
    for (int i = 0; i < 4; ++i)
        f.pop();
    EXPECT_EQ(f.highWatermark(), 5u);
    // The recording-window opener drops the warmup transient: tracking
    // restarts at the surviving occupancy, not at zero.
    f.resetHighWatermark();
    EXPECT_EQ(f.highWatermark(), 1u);
    f.push(5);
    f.push(6);
    EXPECT_EQ(f.highWatermark(), 3u);
    f.pop();
    f.pop();
    f.pop();
    f.resetHighWatermark();
    EXPECT_EQ(f.highWatermark(), 0u);
}

TEST(Fifo, MoveOnlyPayloadsSupported)
{
    Fifo<std::unique_ptr<int>> f;
    f.push(std::make_unique<int>(42));
    auto out = f.pop();
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, 42);
}

TEST(Fifo, WrapsAroundWithoutGrowing)
{
    // Eight cells is the ring's first size: cycling a few entries
    // through it many times wraps head and tail past the end.
    Fifo<int> f;
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 5; ++i)
            f.push(next_in++);
        for (int i = 0; i < 5; ++i)
            ASSERT_EQ(f.pop(), next_out++);
    }
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.highWatermark(), 5u);
}

TEST(Fifo, GrowsWhileWrappedKeepingOrder)
{
    Fifo<int> f;
    // Wrap the 8-cell ring: head at cell 6, entries in cells 6, 7, 0..
    for (int i = 0; i < 6; ++i)
        f.push(-1);
    for (int i = 0; i < 6; ++i)
        f.pop();
    for (int i = 0; i < 8; ++i)
        f.push(i);
    // Full and wrapped: the next pushes double the ring twice.
    for (int i = 8; i < 40; ++i)
        f.push(i);
    EXPECT_EQ(f.size(), 40u);
    EXPECT_EQ(f.front(), 0);
    for (int i = 0; i < 40; ++i)
        ASSERT_EQ(f.pop(), i);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, HighWatermarkAfterResetOnWrappedRing)
{
    Fifo<int> f;
    for (int i = 0; i < 20; ++i)
        f.push(i);
    for (int i = 0; i < 18; ++i)
        f.pop();
    EXPECT_EQ(f.highWatermark(), 20u);
    f.resetHighWatermark();
    EXPECT_EQ(f.highWatermark(), 2u);
    // Cycle through the wrap: the peak is measured from the reset on.
    for (int round = 0; round < 30; ++round) {
        f.push(100 + round);
        f.push(200 + round);
        f.pop();
    }
    EXPECT_EQ(f.size(), 32u);
    EXPECT_EQ(f.highWatermark(), 33u);
    // Popped so far: 18, 19, then 100, 200, ..., 113, 213.
    EXPECT_EQ(f.front(), 114);
}

TEST(QpEntries, DefaultsAreSane)
{
    const WorkQueueEntry wqe;
    EXPECT_EQ(wqe.op, rpcvalet::proto::OpType::Send);
    EXPECT_TRUE(wqe.payload.empty());

    const CompletionQueueEntry cqe;
    EXPECT_EQ(cqe.slotIndex, 0u);
    EXPECT_EQ(cqe.firstPacketTick, 0u);
    EXPECT_EQ(cqe.completionTick, 0u);
    EXPECT_EQ(cqe.deliveredTick, 0u);
}

TEST(QpEntries, CqeTimestampsOrderAlongPipeline)
{
    CompletionQueueEntry cqe;
    cqe.firstPacketTick = 100;
    cqe.completionTick = 130;
    cqe.deliveredTick = 150;
    EXPECT_LE(cqe.firstPacketTick, cqe.completionTick);
    EXPECT_LE(cqe.completionTick, cqe.deliveredTick);
}

} // namespace
