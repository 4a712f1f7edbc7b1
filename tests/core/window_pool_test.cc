/**
 * @file
 * core::WindowPool's execution contract: every domain runs exactly
 * once per window, on one fixed thread for the life of the pool (the
 * client domain on the coordinator, every domain dealt longest first
 * onto the least loaded worker), each worker's domains in index
 * order, and each domain's prologue immediately before it on that
 * thread; the one-worker path runs inline, in domain order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hh"
#include "sim/domain.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

/** The domain whose prologue ran last on this thread. */
thread_local const sim::EventDomain *lastPrologue = nullptr;
/** Window (its start tick) and domain of this thread's last prologue. */
thread_local sim::Tick lastWindow = ~sim::Tick{0};
thread_local sim::DomainId lastDomain = 0;

/** What one domain saw; written only by the domain's owner. */
struct Trace
{
    std::uint64_t prologues = 0;
    std::uint64_t runs = 0;
    /** Runs not directly preceded by this domain's own prologue. */
    std::uint64_t orphanRuns = 0;
    /** Prologues behind a higher-index domain in the same window. */
    std::uint64_t outOfOrder = 0;
    /** Windows that ran on another thread than the first one. */
    std::uint64_t moves = 0;
    std::thread::id thread;
};

/**
 * @p domains EventDomains under a pool of @p workers. The prologue
 * records its thread and schedules an event at the window's first
 * tick; the event checks it runs right after that prologue.
 */
class Harness
{
  public:
    Harness(std::size_t domains, unsigned workers) : traces_(domains)
    {
        lastPrologue = nullptr;
        lastWindow = ~sim::Tick{0};
        for (std::size_t d = 0; d < domains; ++d) {
            owned_.push_back(std::make_unique<sim::EventDomain>(
                static_cast<sim::DomainId>(d), "d" + std::to_string(d)));
            domains_.push_back(owned_.back().get());
        }
        pool_ = std::make_unique<core::WindowPool>(
            workers, [this](sim::EventDomain &d) { prologue(d); });
    }

    /** Run window @p k (1-based) of 100 ns. */
    void
    runWindow(std::uint64_t k)
    {
        pool_->run(domains_,
                   static_cast<sim::Tick>(k) * sim::nanoseconds(100.0) -
                       1);
    }

    const Trace &trace(std::size_t d) const { return traces_[d]; }
    /** Domain indices in prologue order (one-worker runs only). */
    const std::vector<sim::DomainId> &order() const { return order_; }

  private:
    void
    prologue(sim::EventDomain &d)
    {
        Trace &t = traces_[d.id()];
        if (t.prologues == 0)
            t.thread = std::this_thread::get_id();
        else if (t.thread != std::this_thread::get_id())
            ++t.moves;
        ++t.prologues;
        if (lastWindow == d.now() && lastDomain >= d.id())
            ++t.outOfOrder;
        lastWindow = d.now();
        lastDomain = d.id();
        lastPrologue = &d;
        if (pool_->workers() == 1)
            order_.push_back(d.id());
        d.scheduleAt(d.now(), [&t, &d] {
            ++t.runs;
            if (lastPrologue != &d)
                ++t.orphanRuns;
        });
    }

    std::vector<std::unique_ptr<sim::EventDomain>> owned_;
    std::vector<sim::EventDomain *> domains_;
    std::vector<Trace> traces_;
    std::vector<sim::DomainId> order_;
    std::unique_ptr<core::WindowPool> pool_;
};

TEST(WindowPool, OwnerMapPinsTheClientToTheCoordinator)
{
    using Map = std::vector<unsigned>;
    for (const unsigned w : {0u, 1u})
        EXPECT_EQ(core::WindowPool::ownerMap(8, w), Map(8, 0u)) << w;
    for (const unsigned w : {2u, 3u, 4u, 5u, 9u})
        EXPECT_EQ(core::WindowPool::ownerMap(5, w).front(), 0u) << w;
    // The client weighs two node domains: at 2 workers it shares the
    // coordinator with node domain 3, and the helper runs 1, 2 and 4.
    EXPECT_EQ(core::WindowPool::ownerMap(5, 2), (Map{0, 1, 1, 0, 1}));
    // From 3 workers on, 5 domains map as round-robin over the helpers
    // did: the client alone on the coordinator.
    EXPECT_EQ(core::WindowPool::ownerMap(5, 3), (Map{0, 1, 2, 1, 2}));
    EXPECT_EQ(core::WindowPool::ownerMap(5, 4), (Map{0, 1, 2, 3, 1}));
    EXPECT_EQ(core::WindowPool::ownerMap(5, 5), (Map{0, 1, 2, 3, 4}));
    EXPECT_EQ(core::WindowPool::ownerMap(5, 9), (Map{0, 1, 2, 3, 4}));
    // Longest first onto the least loaded worker: 8 domains, 4 workers.
    EXPECT_EQ(core::WindowPool::ownerMap(8, 4),
              (Map{0, 1, 2, 3, 1, 2, 3, 0}));
}

TEST(WindowPool, EveryDomainRunsOncePerWindowOnItsFixedOwner)
{
    constexpr std::size_t kDomains = 5;
    constexpr std::uint64_t kWindows = 200;
    // 2 workers put a node domain beside the client, 4 deal the four
    // node domains unevenly, 5 give each domain a worker of its own,
    // 6 leave one helper idle.
    for (const unsigned workers : {2u, 3u, 4u, 5u, 6u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        Harness h(kDomains, workers);
        for (std::uint64_t k = 1; k <= kWindows; ++k) {
            h.runWindow(k);
            for (std::size_t d = 0; d < kDomains; ++d) {
                ASSERT_EQ(h.trace(d).prologues, k) << "domain " << d;
                ASSERT_EQ(h.trace(d).runs, k) << "domain " << d;
            }
        }
        const std::vector<unsigned> owners =
            core::WindowPool::ownerMap(kDomains, workers);
        std::set<std::thread::id> threads;
        for (std::size_t d = 0; d < kDomains; ++d) {
            SCOPED_TRACE("domain " + std::to_string(d));
            const Trace &t = h.trace(d);
            EXPECT_EQ(t.moves, 0u);
            EXPECT_EQ(t.orphanRuns, 0u);
            EXPECT_EQ(t.outOfOrder, 0u);
            threads.insert(t.thread);
            // Worker 0 is the calling thread.
            EXPECT_EQ(t.thread == std::this_thread::get_id(),
                      owners[d] == 0);
            for (std::size_t e = 0; e < d; ++e) {
                EXPECT_EQ(t.thread == h.trace(e).thread,
                          owners[d] == owners[e])
                    << "vs domain " << e;
            }
        }
        EXPECT_EQ(threads.size(), std::min<std::size_t>(workers, kDomains));
    }
}

TEST(WindowPool, OneWorkerRunsInlineInDomainOrder)
{
    constexpr std::size_t kDomains = 4;
    constexpr std::uint64_t kWindows = 10;
    Harness h(kDomains, 1);
    for (std::uint64_t k = 1; k <= kWindows; ++k)
        h.runWindow(k);
    std::vector<sim::DomainId> expected;
    for (std::uint64_t k = 0; k < kWindows; ++k) {
        for (sim::DomainId d = 0; d < kDomains; ++d)
            expected.push_back(d);
    }
    EXPECT_EQ(h.order(), expected);
    for (std::size_t d = 0; d < kDomains; ++d) {
        EXPECT_EQ(h.trace(d).thread, std::this_thread::get_id());
        EXPECT_EQ(h.trace(d).runs, kWindows);
        EXPECT_EQ(h.trace(d).orphanRuns, 0u);
    }
}

} // namespace
