/**
 * @file
 * Unit tests for the NI dispatcher (§4.3): threshold enforcement, FIFO
 * shared-CQ draining, replenish crediting, decision serialization, and
 * delivery at the pipeline exit plus the core's delay.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ni/dispatcher.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;
using ni::Dispatcher;
using Simulator = sim::EventDomain;
using sim::nanoseconds;

proto::CompletionQueueEntry
entry(std::uint32_t slot)
{
    proto::CompletionQueueEntry e;
    e.slotIndex = slot;
    return e;
}

struct Delivery
{
    proto::CoreId core;
    std::uint32_t slot;
};

struct Fixture
{
    Simulator sim;
    std::vector<Delivery> deliveries;

    std::unique_ptr<Dispatcher>
    make(std::uint32_t threshold, std::uint32_t cores = 4)
    {
        Dispatcher::Params p;
        p.outstandingThreshold = threshold;
        std::vector<proto::CoreId> cand;
        for (proto::CoreId c = 0; c < cores; ++c)
            cand.push_back(c);
        return std::make_unique<Dispatcher>(
            sim, p, ni::makePolicy("greedy"),
            cores, cand,
            [this](proto::CoreId core, proto::CompletionQueueEntry e) {
                deliveries.push_back({core, e.slotIndex});
            });
    }
};

TEST(Dispatcher, DeliversToIdleCores)
{
    Fixture f;
    auto d = f.make(2);
    d->enqueue(entry(0));
    d->enqueue(entry(1));
    f.sim.run();
    ASSERT_EQ(f.deliveries.size(), 2u);
    EXPECT_NE(f.deliveries[0].core, f.deliveries[1].core);
    EXPECT_EQ(d->dispatched(), 2u);
}

TEST(Dispatcher, NeverExceedsThreshold)
{
    Fixture f;
    auto d = f.make(2);
    for (std::uint32_t i = 0; i < 20; ++i)
        d->enqueue(entry(i));
    f.sim.run();
    // 4 cores x threshold 2 = 8 in flight; the rest wait in the CQ.
    EXPECT_EQ(f.deliveries.size(), 8u);
    EXPECT_EQ(d->sharedCqDepth(), 12u);
    for (proto::CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(d->outstanding(c), 2u);
}

TEST(Dispatcher, SharedCqDrainsFifo)
{
    Fixture f;
    auto d = f.make(1);
    for (std::uint32_t i = 0; i < 8; ++i)
        d->enqueue(entry(i));
    f.sim.run();
    ASSERT_EQ(f.deliveries.size(), 4u);
    // First four entries dispatched in order 0..3.
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(f.deliveries[i].slot, i);
    // Replenishes release the rest, still in FIFO order.
    for (proto::CoreId c = 0; c < 4; ++c)
        d->onReplenish(c);
    f.sim.run();
    ASSERT_EQ(f.deliveries.size(), 8u);
    for (std::uint32_t i = 4; i < 8; ++i)
        EXPECT_EQ(f.deliveries[i].slot, i);
}

TEST(Dispatcher, ReplenishFreesCredit)
{
    Fixture f;
    auto d = f.make(1, 1); // one core, threshold 1: strict serial
    d->enqueue(entry(0));
    d->enqueue(entry(1));
    f.sim.run();
    EXPECT_EQ(f.deliveries.size(), 1u);
    EXPECT_EQ(d->outstanding(0), 1u);
    d->onReplenish(0);
    f.sim.run();
    EXPECT_EQ(f.deliveries.size(), 2u);
    EXPECT_EQ(d->outstanding(0), 1u);
}

TEST(Dispatcher, DecisionsSerializeOnPipeline)
{
    // Two back-to-back decisions are 4 ns apart (dispatcherDecision).
    Fixture f;
    auto d = f.make(2);
    std::vector<sim::Tick> times;
    Dispatcher::Params p;
    p.outstandingThreshold = 2;
    Dispatcher timed(
        f.sim, p, ni::makePolicy("greedy"), 4,
        {0, 1, 2, 3},
        [&](proto::CoreId, proto::CompletionQueueEntry) {
            times.push_back(f.sim.now());
        });
    timed.enqueue(entry(0));
    timed.enqueue(entry(1));
    timed.enqueue(entry(2));
    f.sim.run();
    ASSERT_EQ(times.size(), 3u);
    EXPECT_EQ(ni::dispatcherDecision, nanoseconds(4));
    EXPECT_EQ(times[1] - times[0], ni::dispatcherDecision);
    EXPECT_EQ(times[2] - times[1], ni::dispatcherDecision);
}

TEST(Dispatcher, DeliversAtPipelineExitPlusTheCoresDelay)
{
    // Four decisions leave the pipeline 4 ns apart; each CQE reaches
    // the hook its core's delivery delay later, on one event. Without
    // delays it arrives at the pipeline exit.
    const std::vector<sim::Tick> delays = {nanoseconds(10), nanoseconds(3),
                                           nanoseconds(7), nanoseconds(1)};
    for (const bool delayed : {true, false}) {
        SCOPED_TRACE(delayed);
        Simulator sim;
        Dispatcher::Params p;
        p.outstandingThreshold = 1;
        if (delayed)
            p.deliveryDelay = delays;
        std::vector<std::pair<proto::CoreId, sim::Tick>> got;
        Dispatcher d(sim, p, ni::makePolicy("rr"), 4, {0, 1, 2, 3},
                     [&](proto::CoreId core, proto::CompletionQueueEntry) {
                         got.emplace_back(core, sim.now());
                     });
        for (std::uint32_t i = 0; i < 4; ++i)
            d.enqueue(entry(i));
        sim.run();
        ASSERT_EQ(got.size(), 4u);
        for (const auto &[core, at] : got) {
            // rr hands core c the (c + 1)-th decision.
            const sim::Tick exit = (core + 1) * ni::dispatcherDecision;
            EXPECT_EQ(at, exit + (delayed ? delays[core] : 0)) << core;
        }
        EXPECT_EQ(sim.executedEvents(), 4u);
    }
}

TEST(DispatcherDeath, ReplenishWithoutOutstandingPanics)
{
    Fixture f;
    auto d = f.make(2);
    EXPECT_DEATH(d->onReplenish(0), "without outstanding");
}

TEST(DispatcherDeath, CandidateOutOfRangePanics)
{
    Simulator sim;
    Dispatcher::Params p;
    EXPECT_DEATH(Dispatcher(sim, p,
                            ni::makePolicy("greedy"),
                            4, {9},
                            [](proto::CoreId,
                               proto::CompletionQueueEntry) {}),
                 "candidate core");
}

} // namespace
