/**
 * @file
 * Tests for the stateful policies built on the event-driven API:
 * JBSQ's bounded per-core queues with deferred assignment, stale-JSQ's
 * sampled load snapshots, and the delay-aware least-work estimator.
 * Policies are driven through a real Dispatcher so the onArrival /
 * onDispatch / onComplete event plumbing is what's under test.
 */

#include <gtest/gtest.h>

#include <memory>
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

struct Fixture
{
    Simulator sim;
    std::vector<proto::CoreId> deliveredTo;

    std::unique_ptr<Dispatcher>
    make(const ni::PolicySpec &spec, std::uint32_t threshold,
         std::uint32_t cores = 4)
    {
        Dispatcher::Params p;
        p.outstandingThreshold = threshold;
        std::vector<proto::CoreId> cand;
        for (proto::CoreId c = 0; c < cores; ++c)
            cand.push_back(c);
        return std::make_unique<Dispatcher>(
            sim, p, ni::makePolicy(spec), cores, cand,
            [this](proto::CoreId core, proto::CompletionQueueEntry) {
                deliveredTo.push_back(core);
            });
    }
};

TEST(Jbsq, NeverExceedsBoundPerCoreEvenWithLooserThreshold)
{
    // Dispatcher credits would allow 4 per core; jbsq:d=2 must cap its
    // own commitments at 2 and defer the rest in the shared CQ.
    Fixture f;
    auto d = f.make("jbsq:d=2", /*threshold=*/4);
    for (std::uint32_t i = 0; i < 20; ++i)
        d->enqueue(entry(i));
    f.sim.run();
    EXPECT_EQ(f.deliveredTo.size(), 8u); // 4 cores x d=2
    EXPECT_EQ(d->sharedCqDepth(), 12u);  // deferred, not dropped
    for (proto::CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(d->outstanding(c), 2u);
}

TEST(Jbsq, DrainsDeferredQueueOnCompletion)
{
    Fixture f;
    auto d = f.make("jbsq:d=1", /*threshold=*/4);
    for (std::uint32_t i = 0; i < 10; ++i)
        d->enqueue(entry(i));
    f.sim.run();
    ASSERT_EQ(f.deliveredTo.size(), 4u); // one per core at d=1
    EXPECT_EQ(d->sharedCqDepth(), 6u);

    // Each completion must pull exactly one deferred RPC out of the
    // shared CQ, onto the core that freed its slot.
    d->onReplenish(2);
    f.sim.run();
    ASSERT_EQ(f.deliveredTo.size(), 5u);
    EXPECT_EQ(f.deliveredTo.back(), 2u);
    EXPECT_EQ(d->sharedCqDepth(), 5u);

    d->onReplenish(0);
    f.sim.run();
    ASSERT_EQ(f.deliveredTo.size(), 6u);
    EXPECT_EQ(f.deliveredTo.back(), 0u);
    EXPECT_EQ(d->sharedCqDepth(), 4u);
}

TEST(Jbsq, BoundIsCappedByDispatcherThreshold)
{
    // jbsq:d=8 under threshold 2 must honor the tighter credit limit.
    Fixture f;
    auto d = f.make("jbsq:d=8", /*threshold=*/2);
    for (std::uint32_t i = 0; i < 20; ++i)
        d->enqueue(entry(i));
    f.sim.run();
    EXPECT_EQ(f.deliveredTo.size(), 8u);
    for (proto::CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(d->outstanding(c), 2u);
}

/** Drive two dispatchers through an identical event sequence. */
std::vector<proto::CoreId>
deliverySequence(const ni::PolicySpec &spec)
{
    Fixture f;
    auto d = f.make(spec, /*threshold=*/3, /*cores=*/8);
    std::uint32_t slot = 0;
    for (int round = 0; round < 40; ++round) {
        for (int burst = 0; burst <= round % 3; ++burst)
            d->enqueue(entry(slot++));
        f.sim.run();
        // Complete on a deterministic, skewed pattern.
        const proto::CoreId core = f.deliveredTo[round % 7 %
                                                 f.deliveredTo.size()];
        if (d->outstanding(core) > 0)
            d->onReplenish(core);
        f.sim.run();
    }
    return f.deliveredTo;
}

TEST(StaleJsq, ZeroStalenessMatchesGreedyExactly)
{
    // With staleness=0 the snapshot always equals the live counts, so
    // stale-JSQ must reproduce greedy's decisions event for event.
    EXPECT_EQ(deliverySequence("stale-jsq:staleness=0ns"),
              deliverySequence("greedy"));
}

TEST(StaleJsq, StaleSnapshotIgnoresRecentLoad)
{
    // Two cores, threshold 3, everything at t=0 so a huge staleness
    // window means the policy only ever sees the initial all-idle
    // snapshot. After the sequence below the live loads are (2, 0);
    // greedy would pick core 1, but stale-JSQ still believes both are
    // idle and its cursor points at core 0 — admission (live credit
    // check) permits it, so it picks core 0.
    auto drive = [](const ni::PolicySpec &spec) {
        Fixture f;
        auto d = f.make(spec, /*threshold=*/3, /*cores=*/2);
        for (std::uint32_t i = 0; i < 4; ++i)
            d->enqueue(entry(i)); // -> 0, 1, 0, 1 (loads 2, 2)
        f.sim.run();
        d->onReplenish(1);
        d->onReplenish(1); // live loads now (2, 0)
        d->enqueue(entry(4));
        f.sim.run();
        return f.deliveredTo.back();
    };
    EXPECT_EQ(drive("greedy"), 1u);
    EXPECT_EQ(drive("stale-jsq:staleness=1ms"), 0u);
}

TEST(DelayAware, PrefersIdleCoresLikeGreedyAtZeroLoad)
{
    Fixture f;
    auto d = f.make("delay-aware", /*threshold=*/2);
    for (std::uint32_t i = 0; i < 4; ++i)
        d->enqueue(entry(i));
    f.sim.run();
    // All four cores idle: the four RPCs spread one per core.
    std::vector<std::uint32_t> per_core(4, 0);
    for (const proto::CoreId c : f.deliveredTo)
        ++per_core[c];
    EXPECT_EQ(per_core, (std::vector<std::uint32_t>{1, 1, 1, 1}));
}

TEST(DelayAware, EqualCountsBreakTowardOldestDispatch)
{
    // Cores 0 and 1 both hold one RPC, but core 0's was dispatched
    // much earlier — its remaining-work estimate has decayed, so the
    // next RPC goes to core 0 even though the counts tie.
    Fixture f;
    auto d = f.make("delay-aware:init=500ns", /*threshold=*/2,
                    /*cores=*/2);
    d->enqueue(entry(0)); // t=0 -> core 0
    f.sim.run();
    f.sim.scheduleAt(nanoseconds(400), [&] { d->enqueue(entry(1)); });
    f.sim.run(); // t=400ns -> core 1 (core 0 loaded)
    ASSERT_EQ(f.deliveredTo.size(), 2u);
    EXPECT_EQ(f.deliveredTo[0], 0u);
    EXPECT_EQ(f.deliveredTo[1], 1u);

    // t=450ns: counts are (1, 1); core 0's RPC is 450 ns old (est.
    // ~50 ns left), core 1's is 50 ns old (est. ~450 ns left).
    f.sim.scheduleAt(nanoseconds(450), [&] { d->enqueue(entry(2)); });
    f.sim.run();
    ASSERT_EQ(f.deliveredTo.size(), 3u);
    EXPECT_EQ(f.deliveredTo[2], 0u);
}

TEST(DelayAware, CompletionsUpdateTheWorkEstimate)
{
    // After observing fast completions the estimator should treat a
    // just-dispatched RPC as nearly done. Functional smoke: a long
    // mixed sequence keeps dispatching without violating credits.
    Fixture f;
    auto d = f.make("delay-aware:alpha=0.5", /*threshold=*/2);
    std::uint32_t slot = 0;
    for (int round = 0; round < 30; ++round) {
        d->enqueue(entry(slot++));
        f.sim.run();
        if (!f.deliveredTo.empty()) {
            const proto::CoreId core = f.deliveredTo.back();
            if (d->outstanding(core) > 0)
                d->onReplenish(core);
        }
        f.sim.run();
    }
    EXPECT_EQ(f.deliveredTo.size(), 30u);
    for (proto::CoreId c = 0; c < 4; ++c)
        EXPECT_LE(d->outstanding(c), 2u);
}

} // namespace
