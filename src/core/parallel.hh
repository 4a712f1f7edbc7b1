/**
 * @file
 * Shared parallel-execution primitives for the experiment layer.
 *
 * Two independent levels of parallelism compose here through one
 * thread-budget knob:
 *
 *  - Point level: independent simulations (sweep points, scenario
 *    matrix points) fan out over runIndexedParallel() — the single
 *    worker-pool implementation behind both core::runSweep and
 *    scenario::runScenario.
 *  - Domain level: one simulation splits into per-node EventDomains
 *    executed in conservative lookahead windows by a WindowPool.
 *
 * pointConcurrency() divides a caller's total thread budget between
 * the two levels: a sweep with threads = 8 over points that each use
 * parallelDomains = 4 runs 2 points at a time.
 */

#ifndef RPCVALET_CORE_PARALLEL_HH
#define RPCVALET_CORE_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/domain.hh"

namespace rpcvalet::core {

/**
 * Run fn(0), ..., fn(count - 1) across up to @p threads workers, each
 * worker claiming the next unclaimed index until none remain. With
 * threads <= 1 the calls run inline, in order. fn must make each index
 * independent of the others (no cross-index ordering is guaranteed).
 */
void runIndexedParallel(std::size_t count, unsigned threads,
                        const std::function<void(std::size_t)> &fn);

/**
 * How many points may run concurrently under a total thread budget of
 * @p threads when each point itself occupies max(1, parallelDomains)
 * threads. Never returns 0.
 */
unsigned pointConcurrency(unsigned threads, unsigned parallelDomains);

/**
 * A persistent pool of workers executing lookahead windows across a
 * set of EventDomains: each run() call is one window — every domain's
 * runUntil(until) executes exactly once, on its fixed owner, and run()
 * returns only when all are done (the window barrier).
 *
 * Ownership is fixed for the life of the pool: domains[i] runs on
 * worker ownerMap(D, workers())[i] in every window, so a domain's
 * wheel, node and application state stay in one core's caches instead
 * of migrating between cores window after window. Domain 0 is the
 * client side — it carries every node's issue and completion tracking
 * and weighs about two node domains — and always runs on worker 0,
 * the coordinator (the thread calling run()). The map deals the
 * domains longest first onto the least loaded worker: with 5 domains
 * and W >= 3 the client runs alone and the node domains go
 * round-robin over the helpers, while at W = 2 the coordinator takes
 * the client and node domain 3, the helper domains 1, 2 and 4. With
 * W >= D every domain has a worker of its own, and workers beyond the
 * domain count stay idle. Each worker runs its domains in index
 * order.
 *
 * An optional per-domain prologue, fixed at construction, runs on the
 * domain's owner immediately before the domain's runUntil() (and
 * inline, in domain order, on the one-worker path). This is where
 * per-domain barrier work belongs — the fabric drains each domain's
 * cross-domain inbox here (net::Fabric::drainInbox) — so it runs in
 * parallel on the domains' owners instead of serially at the barrier.
 * The prologue owns the domain exactly as runUntil() does and may
 * touch nothing another domain's worker could touch in that window.
 *
 * The synchronization is a spin barrier, not a mutex/condvar pair: at
 * µs-scale lookahead a window often carries only tens of events per
 * domain, so wakeup latency would dominate. Workers spin on a
 * generation counter (with periodic yields), the coordinator
 * publishes a window with a release increment and waits for every
 * worker's release-signed completion — those acquire/release pairs
 * order each domain's window against the coordinator's barrier work
 * (see sim/domain.hh).
 *
 * Determinism: domains are mutually isolated inside a window (fabric
 * lookahead invariant), so the owner map decides only who executes
 * the schedule, and results are bit-identical for any worker count
 * >= 1. With workers == 1 no threads are spawned and run() executes
 * the domains inline, in order.
 */
class WindowPool
{
  public:
    /** Per-domain window prologue (see the class comment). */
    using Prologue = std::function<void(sim::EventDomain &)>;

    /**
     * @param workers  Total workers including the calling thread.
     * @param prologue Run on each domain before it executes a window;
     *                 empty = none.
     */
    explicit WindowPool(unsigned workers, Prologue prologue = {});
    ~WindowPool();

    WindowPool(const WindowPool &) = delete;
    WindowPool &operator=(const WindowPool &) = delete;

    /** Execute one window: every domain runs until @p until. */
    void run(const std::vector<sim::EventDomain *> &domains,
             sim::Tick until);

    unsigned workers() const { return workers_; }

    /**
     * The worker that executes each of @p domains domains in every
     * window of a pool of @p workers workers. Deterministic: weights
     * domain 0 as 2 and every other domain as 1, takes the domains
     * heaviest first (ties in index order) and gives each to the
     * worker with the least weight so far (ties to the lowest
     * worker). Domain 0 always lands on worker 0; with workers <= 1
     * every domain does.
     */
    static std::vector<unsigned> ownerMap(std::size_t domains,
                                          unsigned workers);

  private:
    void workerLoop(unsigned worker);
    /** Run worker @p worker's domains of the published window. */
    void runOwned(unsigned worker);
    void runDomain(sim::EventDomain &domain, sim::Tick until);

    unsigned workers_;
    Prologue prologue_;
    std::vector<std::thread> threads_;
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<std::uint32_t> doneWorkers_{0};
    std::atomic<bool> shutdown_{false};
    /** Window inputs; written by the coordinator before the
     *  generation bump publishes them. */
    const std::vector<sim::EventDomain *> *domains_ = nullptr;
    sim::Tick until_ = 0;
    /** ownerMap() of the domain count run() last saw; rebuilt by the
     *  coordinator before the window is published. */
    std::vector<unsigned> owners_;
};

} // namespace rpcvalet::core

#endif // RPCVALET_CORE_PARALLEL_HH
