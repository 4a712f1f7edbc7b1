/**
 * @file
 * The NI dispatcher: RPCValet's core mechanism (§4.3).
 *
 * One NI backend is designated the dispatcher. NI backends forward
 * message-completion notifications to it; it enqueues them in the
 * shared CQ and pushes each to an available core's private CQ,
 * tracking per-core outstanding counts (threshold 2 by default — one
 * in service, one prefetched to hide the dispatch round-trip bubble).
 * A core's replenish signals completion and frees a credit.
 *
 * The dispatcher is a serial hardware unit: each decision occupies its
 * pipeline for dispatcherDecision, which models the centralization
 * cost the paper argues is negligible (§4.3's ~31/8 ns budget).
 */

#ifndef RPCVALET_NI_DISPATCHER_HH
#define RPCVALET_NI_DISPATCHER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ni/dispatch_policy.hh"
#include "proto/qp.hh"
#include "sim/domain.hh"

namespace rpcvalet::ni {

/** Dispatcher pipeline occupancy per decision (§4.3). */
constexpr sim::Tick dispatcherDecision = sim::nanoseconds(4.0);

/** NI dispatcher for one group of cores. */
class Dispatcher
{
  public:
    /** Delivery hook: push a CQE toward a core's NI frontend. */
    using Deliver =
        std::function<void(proto::CoreId, proto::CompletionQueueEntry)>;

    struct Params
    {
        /** Max outstanding RPCs per core (§4.3: 2). */
        std::uint32_t outstandingThreshold = 2;
        /** RNG seed for stochastic policies. */
        std::uint64_t seed = 1;
    };

    /**
     * @param sim        Owning simulator.
     * @param params     Tuning knobs.
     * @param policy     Core-selection heuristic (owned).
     * @param num_cores  Total cores on the chip (outstanding[] size).
     * @param candidates Cores this dispatcher may target.
     * @param deliver    CQE delivery hook (applies mesh/frontend
     *                   latency on the caller side).
     */
    Dispatcher(sim::EventDomain &sim, const Params &params,
               std::unique_ptr<DispatchPolicy> policy,
               std::uint32_t num_cores,
               std::vector<proto::CoreId> candidates, Deliver deliver);

    /**
     * A fully received message arrived from some NI backend. Fires the
     * policy's onArrival event, then drains what it can.
     */
    void enqueue(proto::CompletionQueueEntry entry);

    /**
     * A core finished an RPC (its replenish reached this dispatcher).
     * Fires the policy's onComplete event, then drains what it can.
     */
    void onReplenish(proto::CoreId core);

    /** Entries currently queued in the shared CQ. */
    std::size_t sharedCqDepth() const { return sharedCq_.size(); }

    /** Peak shared CQ occupancy. */
    std::size_t sharedCqPeak() const { return sharedCq_.highWatermark(); }

    /** Restart peak tracking (recording-window opener). */
    void resetSharedCqPeak() { sharedCq_.resetHighWatermark(); }

    /** Total dispatch decisions made. */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Outstanding count for @p core (test/introspection hook). */
    std::uint32_t outstanding(proto::CoreId core) const;

  private:
    /** A decided CQE riding out the pipeline occupancy: pooled and
     *  reused, since several can be in flight behind the pipe. */
    struct DeliveryEvent : sim::Event
    {
        Dispatcher *disp = nullptr;
        proto::CoreId core = 0;
        proto::CompletionQueueEntry entry;

        void process() override;
        const char *description() const override
        {
            return "dispatch-delivery";
        }
    };

    void tryDispatch();
    DispatchContext context();

    sim::EventDomain &sim_;
    Params params_;
    std::unique_ptr<DispatchPolicy> policy_;
    std::vector<proto::CoreId> candidates_;
    Deliver deliver_;
    proto::Fifo<proto::CompletionQueueEntry> sharedCq_;
    std::vector<std::uint32_t> outstanding_;
    sim::Rng rng_;
    sim::Tick pipeFreeAt_ = 0;
    std::uint64_t dispatched_ = 0;
    sim::EventPool<DeliveryEvent> deliveryPool_;
};

} // namespace rpcvalet::ni

#endif // RPCVALET_NI_DISPATCHER_HH
