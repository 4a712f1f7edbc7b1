/**
 * @file
 * Unit tests for the intrusive event API and the bucketed timer
 * wheel: member events, recurring self-rescheduling, deschedule /
 * reschedule in every wheel region (open window, near-future bucket,
 * far-future overflow), auto-deschedule on destruction, pool
 * recycling under churn (ASan-clean), and the kernel contracts the
 * rewrite must preserve (same-tick FIFO from a firing event, runUntil
 * never moving the wheel cursor past until).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/callback.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

namespace {

using rpcvalet::sim::Event;
using rpcvalet::sim::EventPool;
using rpcvalet::sim::InplaceCallback;
using rpcvalet::sim::MemberEvent;
using rpcvalet::sim::Simulator;
using rpcvalet::sim::Tick;
using rpcvalet::sim::microseconds;
using rpcvalet::sim::nanoseconds;

/** Records its firing times; optionally reschedules itself. */
class Recorder
{
  public:
    explicit Recorder(Simulator &sim) : sim_(sim), event_(*this, "rec")
    {}

    void arm(Tick delay) { sim_.schedule(event_, delay); }

    void
    armRecurring(Tick period, int count)
    {
        period_ = period;
        remaining_ = count;
        sim_.schedule(event_, period_);
    }

    bool scheduled() const { return event_.scheduled(); }
    Tick when() const { return event_.when(); }
    Event &event() { return event_; }
    const std::vector<Tick> &fires() const { return fires_; }

  private:
    void
    fire()
    {
        fires_.push_back(sim_.now());
        if (remaining_ > 0 && --remaining_ > 0)
            sim_.schedule(event_, period_);
    }

    Simulator &sim_;
    Tick period_ = 0;
    int remaining_ = 0;
    std::vector<Tick> fires_;
    MemberEvent<Recorder, &Recorder::fire> event_;
};

TEST(Event, MemberEventFiresAndTracksState)
{
    Simulator sim;
    Recorder r(sim);
    EXPECT_FALSE(r.scheduled());
    r.arm(nanoseconds(5));
    EXPECT_TRUE(r.scheduled());
    EXPECT_EQ(r.when(), nanoseconds(5));
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_FALSE(r.scheduled());
    EXPECT_EQ(r.fires(), std::vector<Tick>{nanoseconds(5)});
    EXPECT_EQ(sim.executedEvents(), 1u);
}

TEST(Event, RecurringEventRunsWithoutAllocatingNewEvents)
{
    Simulator sim;
    Recorder r(sim);
    r.armRecurring(nanoseconds(7), 100);
    sim.run();
    ASSERT_EQ(r.fires().size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.fires()[static_cast<size_t>(i)],
                  nanoseconds(7) * static_cast<Tick>(i + 1));
    EXPECT_EQ(sim.executedEvents(), 100u);
}

TEST(Event, DeschedulePendingEventInEveryRegion)
{
    Simulator sim;
    Recorder near(sim);    // lands in a near-future bucket
    Recorder same(sim);    // lands in the open window
    Recorder far(sim);     // lands in overflow (beyond the horizon)
    Recorder survivor(sim);

    same.arm(100);                   // < 1 ns: open window
    near.arm(nanoseconds(50));       // in-horizon bucket
    far.arm(microseconds(100.0));    // far beyond the ~2 us horizon
    survivor.arm(nanoseconds(60));
    EXPECT_EQ(sim.pendingEvents(), 4u);

    sim.deschedule(same.event());
    sim.deschedule(near.event());
    sim.deschedule(far.event());
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_FALSE(near.scheduled());

    sim.run();
    EXPECT_TRUE(same.fires().empty());
    EXPECT_TRUE(near.fires().empty());
    EXPECT_TRUE(far.fires().empty());
    ASSERT_EQ(survivor.fires().size(), 1u);
    EXPECT_EQ(sim.now(), nanoseconds(60));
}

TEST(Event, DescheduleMiddleOfSharedBucket)
{
    // Several events in one ~1 ns bucket: removing from the middle of
    // the singly-linked chain must keep the remaining FIFO intact.
    Simulator sim;
    Recorder a(sim), b(sim), c(sim);
    a.arm(nanoseconds(10));
    b.arm(nanoseconds(10));
    c.arm(nanoseconds(10));
    sim.deschedule(b.event());
    sim.run();
    EXPECT_EQ(a.fires().size(), 1u);
    EXPECT_TRUE(b.fires().empty());
    EXPECT_EQ(c.fires().size(), 1u);
}

TEST(Event, RescheduleMovesPendingEvent)
{
    Simulator sim;
    Recorder r(sim);
    r.arm(nanoseconds(10));
    sim.reschedule(r.event(), nanoseconds(30));
    sim.run();
    EXPECT_EQ(r.fires(), std::vector<Tick>{nanoseconds(30)});
    // reschedule also works on an idle event.
    sim.reschedule(r.event(), nanoseconds(5));
    sim.run();
    ASSERT_EQ(r.fires().size(), 2u);
    EXPECT_EQ(r.fires()[1], nanoseconds(35));
}

TEST(Event, DestructorAutoDeschedules)
{
    Simulator sim;
    Recorder keeper(sim);
    keeper.arm(nanoseconds(20));
    {
        Recorder doomed(sim);
        doomed.arm(nanoseconds(10));
        EXPECT_EQ(sim.pendingEvents(), 2u);
    }
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(sim.now(), nanoseconds(20));
    EXPECT_EQ(sim.executedEvents(), 1u);
}

TEST(EventDeathTest, DoubleScheduleIsFatal)
{
    Simulator sim;
    Recorder r(sim);
    r.arm(nanoseconds(5));
    EXPECT_DEATH(sim.schedule(r.event(), nanoseconds(9)),
                 "already scheduled");
}

TEST(EventDeathTest, DescheduleIdleEventIsFatal)
{
    Simulator sim;
    Recorder r(sim);
    EXPECT_DEATH(sim.deschedule(r.event()), "unscheduled");
}

TEST(EventDeathTest, SchedulingInThePastIsFatal)
{
    Simulator sim;
    sim.runUntil(nanoseconds(100));
    Recorder r(sim);
    EXPECT_DEATH(sim.scheduleAt(r.event(), nanoseconds(50)),
                 "in the past");
}

TEST(TimerWheel, OverflowEventsFireInOrder)
{
    // Far-future events (overflow list) interleaved with near ones,
    // scheduled out of order, must still fire in (time, seq) order.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(microseconds(50.0), [&] { order.push_back(3); });
    sim.schedule(microseconds(5000.0), [&] { order.push_back(5); });
    sim.schedule(nanoseconds(10), [&] { order.push_back(1); });
    sim.schedule(microseconds(50.0), [&] { order.push_back(4); });
    sim.schedule(nanoseconds(2100), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(sim.now(), microseconds(5000.0));
}

TEST(TimerWheel, FiringEventSchedulingAcrossTheHorizonChains)
{
    // A recurring event whose period exceeds the wheel horizon forces
    // an overflow -> migrate -> fire cycle per occurrence.
    Simulator sim;
    Recorder r(sim);
    r.armRecurring(microseconds(10.0), 50);
    sim.run();
    ASSERT_EQ(r.fires().size(), 50u);
    EXPECT_EQ(r.fires().back(), microseconds(500.0));
}

TEST(TimerWheel, RunUntilPeekDoesNotCorruptWheelState)
{
    // Regression guard: runUntil must not advance the wheel cursor
    // past until for an event it will not execute. If it did, the
    // later near-future schedule would land "behind" the cursor and
    // fire out of order (or never).
    Simulator sim;
    std::vector<int> order;
    sim.schedule(microseconds(9.0), [&] { order.push_back(2); });
    sim.runUntil(microseconds(1.0)); // finds, but keeps, the 9 us event
    EXPECT_TRUE(order.empty());
    sim.schedule(microseconds(1.0), [&] { order.push_back(1); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, RunUntilInsideABucketKeepsLaterSchedulesOrdered)
{
    // until falls inside the ~1 ns bucket of a pending event that is
    // not yet due: runUntil may open that bucket (it starts before
    // until) but must fire nothing past until, and schedules made
    // afterwards — one before the pending event, one at its tick —
    // must still fire in (time, seq) order.
    Simulator sim;
    std::vector<int> order;
    const Tick bucket_start = 1024 * 10;
    const Tick until = bucket_start + 100;
    sim.scheduleAt(bucket_start + 900, [&] { order.push_back(2); });
    sim.runUntil(until);
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(sim.now(), until);
    sim.scheduleAt(bucket_start + 900, [&] { order.push_back(3); });
    sim.scheduleAt(until + 1, [&] { order.push_back(1); });
    sim.runUntil(until + 1);
    EXPECT_EQ(order, std::vector<int>{1});
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, SameTickEventAndCallbackInterleaveFifo)
{
    // Intrusive events and one-shot callbacks share one determinism
    // contract: same tick => scheduling order.
    Simulator sim;
    std::vector<int> order;
    Recorder r(sim);
    sim.schedule(nanoseconds(5), [&] { order.push_back(0); });
    r.arm(nanoseconds(5));
    sim.schedule(nanoseconds(5), [&] { order.push_back(2); });
    sim.run();
    ASSERT_EQ(r.fires().size(), 1u);
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventPool, RecyclesReleasedEvents)
{
    struct Noop : Event
    {
        void process() override {}
    };
    EventPool<Noop> pool;
    Noop *a = pool.acquire();
    Noop *b = pool.acquire();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.size(), 2u);
    pool.release(a);
    EXPECT_EQ(pool.acquire(), a); // LIFO reuse, no growth
    EXPECT_EQ(pool.size(), 2u);
}

TEST(EventPool, OneShotChurnRecyclesUnderLoad)
{
    // Millions of one-shot schedule/fire cycles across repeated runs
    // on one simulator: the pool must recycle instead of growing, and
    // ASan must see no leak or use-after-free. Mixed capture sizes
    // exercise both the inline and the heap-fallback callback paths.
    Simulator sim;
    std::uint64_t fired = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 500; ++i) {
            sim.schedule(nanoseconds(i % 97), [&fired] { ++fired; });
            if (i % 25 == 0) {
                // Oversized capture: heap fallback path.
                std::vector<std::uint64_t> big(16, fired);
                sim.schedule(nanoseconds(i), [&fired, big] {
                    fired += big.size() > 0 ? 1 : 0;
                });
            }
        }
        sim.run();
    }
    EXPECT_EQ(fired, 50u * (500u + 20u));
    // Steady-state churn must not grow the queue.
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(InplaceCallback, InlineAndHeapCapturesBehave)
{
    int hits = 0;
    InplaceCallback small([&hits] { ++hits; });
    EXPECT_TRUE(small != nullptr);
    small();
    EXPECT_EQ(hits, 1);

    // > 3 pointers of captures: heap fallback, still correct.
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    InplaceCallback big([&hits, a, b, c, d] {
        hits += static_cast<int>(a + b + c + d);
    });
    InplaceCallback moved = std::move(big);
    EXPECT_TRUE(big == nullptr);
    moved();
    EXPECT_EQ(hits, 11);

    moved.reset();
    EXPECT_FALSE(static_cast<bool>(moved));

    InplaceCallback empty;
    EXPECT_TRUE(empty == nullptr);
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesAndStaysUsable)
{
    Simulator sim;
    EXPECT_EQ(sim.runUntil(microseconds(3.0)), microseconds(3.0));
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.executedEvents(), 0u);
    // The kernel must accept new work after the clock jump.
    int fired = 0;
    sim.schedule(nanoseconds(1), [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), microseconds(3.0) + nanoseconds(1));
}

TEST(Simulator, StopFromInsideCallbackPreservesRemainingEvents)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(nanoseconds(1), [&] {
        order.push_back(1);
        sim.stop();
        // Scheduling after stop() must still be honored on resume.
        sim.schedule(nanoseconds(1), [&] { order.push_back(2); });
    });
    sim.schedule(nanoseconds(5), [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, std::vector<int>{1});
    EXPECT_TRUE(sim.stopRequested());
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAtNowFromFiringEventIsFifoAfterPending)
{
    // An event firing at tick T that schedules new work at T must see
    // that work run after everything already pending at T.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(nanoseconds(5), [&] {
        order.push_back(1);
        sim.schedule(0, [&] { order.push_back(3); });
        sim.schedule(0, [&] { order.push_back(4); });
    });
    sim.schedule(nanoseconds(5), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(sim.now(), nanoseconds(5));
}

} // namespace
