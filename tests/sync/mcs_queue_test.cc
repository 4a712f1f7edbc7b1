/**
 * @file
 * Unit tests for the MCS-locked software shared queue (§6.2 baseline):
 * FIFO ordering, serialization at handoff+cs cost, and idle-lock
 * fast path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/domain.hh"
#include "sync/mcs_queue.hh"

namespace {

using namespace rpcvalet;
using Simulator = sim::EventDomain;
using sim::Tick;
using sim::nanoseconds;
using sync::mcsCriticalSection;
using sync::mcsHandoff;
using sync::mcsUncontendedAcquire;
using sync::SoftwareSharedQueue;

proto::CompletionQueueEntry
entry(std::uint32_t slot)
{
    proto::CompletionQueueEntry e;
    e.slotIndex = slot;
    return e;
}

TEST(McsQueue, UncontendedPullCostsAcquirePlusCs)
{
    Simulator sim;
    SoftwareSharedQueue q(sim);
    Tick got_at = 0;
    q.requestPull([&](const proto::CompletionQueueEntry &) {
        got_at = sim.now();
    });
    sim.schedule(nanoseconds(100), [&] { q.push(entry(1)); });
    sim.run();
    EXPECT_EQ(got_at,
              nanoseconds(100) + mcsUncontendedAcquire + mcsCriticalSection);
    EXPECT_EQ(q.pulls(), 1u);
    EXPECT_EQ(q.contendedPulls(), 0u);
}

TEST(McsQueue, EntriesDeliveredFifo)
{
    Simulator sim;
    SoftwareSharedQueue q(sim);
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < 8; ++i)
        q.push(entry(i));
    for (int c = 0; c < 8; ++c) {
        q.requestPull([&](const proto::CompletionQueueEntry &e) {
            order.push_back(e.slotIndex);
        });
    }
    sim.run();
    ASSERT_EQ(order.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(McsQueue, WaitersServedInRequestOrder)
{
    Simulator sim;
    SoftwareSharedQueue q(sim);
    std::vector<int> who;
    for (int c = 0; c < 4; ++c) {
        q.requestPull([&who, c](const proto::CompletionQueueEntry &) {
            who.push_back(c);
        });
    }
    for (std::uint32_t i = 0; i < 4; ++i)
        q.push(entry(i));
    sim.run();
    EXPECT_EQ(who, (std::vector<int>{0, 1, 2, 3}));
}

TEST(McsQueue, BackToBackPullsSerializeAtHandoffPlusCs)
{
    // The MCS property §6.2 leans on: under contention the dequeue
    // rate is bounded by 1 / (handoff + criticalSection).
    Simulator sim;
    EXPECT_EQ(mcsUncontendedAcquire, nanoseconds(40));
    EXPECT_EQ(mcsHandoff, nanoseconds(50));
    EXPECT_EQ(mcsCriticalSection, nanoseconds(80));
    SoftwareSharedQueue q(sim);

    std::vector<Tick> times;
    const int n = 10;
    for (int i = 0; i < n; ++i)
        q.push(entry(static_cast<std::uint32_t>(i)));
    for (int i = 0; i < n; ++i) {
        q.requestPull([&](const proto::CompletionQueueEntry &) {
            times.push_back(sim.now());
        });
    }
    sim.run();
    ASSERT_EQ(times.size(), static_cast<size_t>(n));
    // First pull: uncontended. Every later pull: handoff + cs apart.
    EXPECT_EQ(times[0], mcsUncontendedAcquire + mcsCriticalSection);
    for (int i = 1; i < n; ++i) {
        EXPECT_EQ(times[static_cast<size_t>(i)] -
                      times[static_cast<size_t>(i - 1)],
                  mcsHandoff + mcsCriticalSection)
            << "pull " << i;
    }
    EXPECT_EQ(q.contendedPulls(), static_cast<std::uint64_t>(n - 1));
}

TEST(McsQueue, LockIdleBetweenBurstsResetsFastPath)
{
    Simulator sim;
    SoftwareSharedQueue q(sim);
    std::vector<Tick> times;
    auto puller = [&] {
        q.requestPull([&](const proto::CompletionQueueEntry &) {
            times.push_back(sim.now());
        });
    };
    puller();
    q.push(entry(0));
    // Second burst long after the first completed: uncontended again.
    sim.schedule(nanoseconds(10000), [&] {
        puller();
        q.push(entry(1));
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[1] - nanoseconds(10000),
              mcsUncontendedAcquire + mcsCriticalSection);
    EXPECT_EQ(q.contendedPulls(), 0u);
}

TEST(McsQueue, BacklogAndWaitersTracked)
{
    Simulator sim;
    SoftwareSharedQueue q(sim);
    q.push(entry(0));
    q.push(entry(1));
    EXPECT_EQ(q.backlog(), 2u);
    EXPECT_EQ(q.waitingCores(), 0u);
    q.requestPull([](const proto::CompletionQueueEntry &) {});
    // Matching consumes one entry and the waiter immediately.
    EXPECT_EQ(q.backlog(), 1u);
    EXPECT_EQ(q.waitingCores(), 0u);
}

TEST(McsQueue, LockBusyTimeAccounted)
{
    Simulator sim;
    SoftwareSharedQueue q(sim);
    q.push(entry(0));
    q.requestPull([](const proto::CompletionQueueEntry &) {});
    sim.run();
    EXPECT_EQ(q.lockBusyTicks(),
              mcsUncontendedAcquire + mcsCriticalSection);
}

} // namespace
