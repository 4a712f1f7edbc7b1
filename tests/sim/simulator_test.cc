/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * stop/run-until semantics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"
#include "sim/types.hh"

namespace {

using rpcvalet::sim::Simulator;
using rpcvalet::sim::Tick;
using rpcvalet::sim::nanoseconds;
using rpcvalet::sim::ticksPerNs;

TEST(Types, NanosecondConversionRoundTrips)
{
    EXPECT_EQ(nanoseconds(1.0), ticksPerNs);
    EXPECT_EQ(nanoseconds(1.5), 1500u);
    EXPECT_DOUBLE_EQ(rpcvalet::sim::toNs(nanoseconds(123.0)), 123.0);
    EXPECT_DOUBLE_EQ(rpcvalet::sim::toUs(rpcvalet::sim::microseconds(7.0)),
                     7.0);
}

TEST(Types, ClockCyclesMatchFrequency)
{
    const rpcvalet::sim::Clock two_ghz(2.0);
    EXPECT_EQ(two_ghz.cycles(1), 500u);   // 0.5 ns
    EXPECT_EQ(two_ghz.cycles(3), 1500u);  // 1.5 ns mesh hop
    EXPECT_EQ(two_ghz.cycles(6), 3000u);  // LLC latency
    EXPECT_DOUBLE_EQ(two_ghz.frequencyGhz(), 2.0);
}

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(nanoseconds(30), [&] { order.push_back(3); });
    sim.schedule(nanoseconds(10), [&] { order.push_back(1); });
    sim.schedule(nanoseconds(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), nanoseconds(30));
}

TEST(Simulator, SameTickEventsFireInScheduleOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        sim.schedule(nanoseconds(5), [&order, i] { order.push_back(i); });
    sim.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents)
{
    Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 100)
            sim.schedule(nanoseconds(1), chain);
    };
    sim.schedule(0, chain);
    sim.run();
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(sim.now(), nanoseconds(99));
    EXPECT_EQ(sim.executedEvents(), 100u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime)
{
    Simulator sim;
    Tick seen = 12345;
    sim.schedule(nanoseconds(10), [&] {
        sim.schedule(0, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, nanoseconds(10));
}

TEST(Simulator, StopHaltsProcessing)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(nanoseconds(1), [&] { ++fired; });
    sim.schedule(nanoseconds(2), [&] {
        ++fired;
        sim.stop();
    });
    sim.schedule(nanoseconds(3), [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    // A fresh run() resumes the remaining event.
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents)
{
    Simulator sim;
    sim.runUntil(nanoseconds(500));
    EXPECT_EQ(sim.now(), nanoseconds(500));
}

TEST(Simulator, RunUntilProcessesOnlyDueEvents)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(nanoseconds(10), [&] { order.push_back(1); });
    sim.schedule(nanoseconds(30), [&] { order.push_back(2); });
    sim.runUntil(nanoseconds(20));
    EXPECT_EQ(order, std::vector<int>{1});
    EXPECT_EQ(sim.now(), nanoseconds(20));
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, PendingEventsTracksQueueDepth)
{
    Simulator sim;
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.schedule(nanoseconds(1), [] {});
    sim.schedule(nanoseconds(2), [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.run();
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

} // namespace
