#include "sync/mcs_queue.hh"

#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::sync {

SoftwareSharedQueue::SoftwareSharedQueue(sim::EventDomain &sim) : sim_(sim)
{
}

void
SoftwareSharedQueue::push(proto::CompletionQueueEntry entry)
{
    entries_.push(std::move(entry));
    tryMatch();
}

void
SoftwareSharedQueue::requestPull(PullCallback cb)
{
    RV_ASSERT(cb != nullptr, "null pull callback");
    waiters_.push(std::move(cb));
    tryMatch();
}

void
SoftwareSharedQueue::tryMatch()
{
    // Grant (entry, waiter) pairs through the lock in FIFO order. Each
    // grant reserves the lock for acquire/handoff + critical section;
    // back-to-back grants pipeline at handoff + cs, which is the MCS
    // serialization bottleneck the paper's §6.2 software curve shows.
    while (!entries_.empty() && !waiters_.empty()) {
        const sim::Tick now = sim_.now();
        const bool contended = lockFreeAt_ > now;
        const sim::Tick start = contended ? lockFreeAt_ : now;
        const sim::Tick entry_cost =
            contended ? mcsHandoff : mcsUncontendedAcquire;
        const sim::Tick done = start + entry_cost + mcsCriticalSection;

        lockBusy_ += done - start;
        lockFreeAt_ = done;
        ++pulls_;
        if (contended)
            ++contendedPulls_;

        // Entry and waiter are logically consumed at grant completion,
        // but removed from the FIFOs now to keep ordering decisions
        // simple; the callback fires at `done`.
        proto::CompletionQueueEntry entry = entries_.pop();
        PullCallback cb = waiters_.pop();

        sim_.scheduleAt(done, [cb = std::move(cb),
                               entry = std::move(entry)] { cb(entry); });
    }
}

} // namespace rpcvalet::sync
