/**
 * @file
 * Software single-queue baseline (§6.2).
 *
 * The paper's software 1x16 implementation lets all 16 threads pull
 * incoming requests from one shared FIFO guarded by an MCS queue-based
 * lock [Mellor-Crummey & Scott]. The defining property is FIFO lock
 * handoff with a per-handoff cache-line transfer between cores: under
 * contention, dequeues serialize at (handoff + critical section) cost.
 *
 * This module models the lock as a timed resource inside the DES:
 * waiter order is FIFO, an idle lock grants after the uncontended
 * acquire cost, and back-to-back grants are separated by the handoff
 * plus critical-section time. The constants below are derived from
 * published cache-coherent lock transfer latencies.
 */

#ifndef RPCVALET_SYNC_MCS_QUEUE_HH
#define RPCVALET_SYNC_MCS_QUEUE_HH

#include <cstdint>
#include <functional>

#include "proto/qp.hh"
#include "sim/domain.hh"
#include "sim/types.hh"

namespace rpcvalet::sync {

/** MCS lock acquire cost when the lock is free and uncontended. */
constexpr sim::Tick mcsUncontendedAcquire = sim::nanoseconds(40.0);
/** MCS lock handoff to the next queued waiter (cache-line transfer). */
constexpr sim::Tick mcsHandoff = sim::nanoseconds(50.0);
/**
 * Critical section: dequeue the head entry and update the shared
 * queue's head pointer (two remote cache lines).
 */
constexpr sim::Tick mcsCriticalSection = sim::nanoseconds(80.0);

/**
 * Shared completion queue pulled by cores through an MCS lock.
 *
 * NIs push entries (push()); idle cores register to pull
 * (requestPull()). Matching entry->core grants run through the lock
 * model and complete via the core's callback.
 */
class SoftwareSharedQueue
{
  public:
    using PullCallback =
        std::function<void(const proto::CompletionQueueEntry &)>;

    explicit SoftwareSharedQueue(sim::EventDomain &sim);

    /** NI-side: enqueue an arrived message notification. */
    void push(proto::CompletionQueueEntry entry);

    /**
     * Core-side: ask for the next entry. The callback fires once the
     * core has acquired the lock and dequeued an entry — possibly
     * immediately-ish, possibly after waiting for work or the lock.
     * Cores are served in request (FIFO) order, like MCS waiters.
     */
    void requestPull(PullCallback cb);

    /** Total completed pulls. */
    std::uint64_t pulls() const { return pulls_; }

    /** Pulls that found the lock busy (paid handoff, not acquire). */
    std::uint64_t contendedPulls() const { return contendedPulls_; }

    /** Entries waiting right now. */
    std::size_t backlog() const { return entries_.size(); }

    /** Cores waiting right now. */
    std::size_t waitingCores() const { return waiters_.size(); }

    /** Aggregate ticks the lock was held. */
    sim::Tick lockBusyTicks() const { return lockBusy_; }

  private:
    void tryMatch();

    sim::EventDomain &sim_;
    proto::Fifo<proto::CompletionQueueEntry> entries_;
    proto::Fifo<PullCallback> waiters_;
    sim::Tick lockFreeAt_ = 0;
    std::uint64_t pulls_ = 0;
    std::uint64_t contendedPulls_ = 0;
    sim::Tick lockBusy_ = 0;
};

} // namespace rpcvalet::sync

#endif // RPCVALET_SYNC_MCS_QUEUE_HH
