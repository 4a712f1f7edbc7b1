#include "ni/dispatcher.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::ni {

Dispatcher::Dispatcher(sim::EventDomain &sim, const Params &params,
                       std::unique_ptr<DispatchPolicy> policy,
                       std::uint32_t num_cores,
                       std::vector<proto::CoreId> candidates,
                       Deliver deliver)
    : sim_(sim), params_(params), policy_(std::move(policy)),
      candidates_(std::move(candidates)), deliver_(std::move(deliver)),
      outstanding_(num_cores, 0), rng_(params.seed, /*stream=*/0xD15A)
{
    RV_ASSERT(policy_ != nullptr, "dispatcher needs a policy");
    RV_ASSERT(!candidates_.empty(), "dispatcher needs candidate cores");
    RV_ASSERT(params_.outstandingThreshold >= 1,
              "outstanding threshold must be at least 1");
    for (const proto::CoreId c : candidates_)
        RV_ASSERT(c < num_cores, "candidate core out of range");
    RV_ASSERT(deliver_ != nullptr, "dispatcher needs a delivery hook");
}

DispatchContext
Dispatcher::context()
{
    return DispatchContext{outstanding_, candidates_,
                           params_.outstandingThreshold, sim_.now(), rng_};
}

void
Dispatcher::enqueue(proto::CompletionQueueEntry entry)
{
    sharedCq_.push(std::move(entry));
    policy_->onArrival(context());
    tryDispatch();
}

void
Dispatcher::onReplenish(proto::CoreId core)
{
    RV_ASSERT(core < outstanding_.size(), "replenish core out of range");
    RV_ASSERT(outstanding_[core] > 0, "replenish without outstanding RPC");
    --outstanding_[core];
    policy_->onComplete(core, context());
    tryDispatch();
}

std::uint32_t
Dispatcher::outstanding(proto::CoreId core) const
{
    RV_ASSERT(core < outstanding_.size(), "core out of range");
    return outstanding_[core];
}

void
Dispatcher::tryDispatch()
{
    // Drain the shared CQ to available cores in FIFO order (§4.3).
    // Each decision serializes on the dispatch pipeline.
    while (!sharedCq_.empty()) {
        const auto target = policy_->select(context());
        if (!target)
            return; // candidates saturated or assignment deferred
        RV_ASSERT(*target < outstanding_.size(),
                  "policy selected a core outside the chip");
        RV_ASSERT(std::find(candidates_.begin(), candidates_.end(),
                            *target) != candidates_.end(),
                  "policy selected a core outside its candidate set");
        RV_ASSERT(outstanding_[*target] < params_.outstandingThreshold,
                  "policy overcommitted a core past the credit threshold");
        ++outstanding_[*target];
        ++dispatched_;
        policy_->onDispatch(*target, context());
        proto::CompletionQueueEntry entry = sharedCq_.pop();

        const sim::Tick start = std::max(sim_.now(), pipeFreeAt_);
        pipeFreeAt_ = start + dispatcherDecision;
        DeliveryEvent *ev = deliveryPool_.acquire();
        ev->disp = this;
        ev->core = *target;
        ev->entry = std::move(entry);
        sim_.scheduleAt(*ev, pipeFreeAt_);
    }
}

void
Dispatcher::DeliveryEvent::process()
{
    Dispatcher *d = disp;
    const proto::CoreId c = core;
    proto::CompletionQueueEntry e = std::move(entry);
    // Recycle first: the delivery hook can trigger another dispatch.
    d->deliveryPool_.release(this);
    d->deliver_(c, std::move(e));
}

} // namespace rpcvalet::ni
