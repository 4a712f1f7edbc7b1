/**
 * @file
 * NI backend: the data-plane half of the Manycore NI (Fig. 4, §4.1).
 *
 * Backends sit on the chip edge and run soNUMA's three pipelines. This
 * model implements the two that matter for messaging:
 *
 *  - Remote Request Processing (ingress): per incoming packet, write
 *    the payload block into the receive buffer, fetch-and-increment
 *    the slot's arrival counter, and — when the counter matches the
 *    header's totalBlocks — emit a message-completion notification
 *    (§4.4's new pipeline stages).
 *  - Request Generation (egress): unroll a send/replenish WQE into
 *    cache-block packets and stream them into the fabric.
 *
 *  Each direction is a serial pipeline with per-packet occupancy;
 *  queueing behind it under load produces the implementation
 *  contention the paper cites for its model-vs-simulation gap (§6.3).
 *
 * Message trains. Every packet keeps its own pipeline slot, but a
 * packet gets a simulator event only where its timing is observable,
 * and the unit in and out is a proto::Train (a whole message or one
 * packet of it):
 *
 *  - Ingress (receive): a packet's pipeline exit time is fixed when it
 *    arrives, so its block write and counter update are staged then
 *    (mem::RecvBuffer::stage). Only a message's first-received packet,
 *    which claims the receive slot, and its last-received packet,
 *    which completes the message, get an event at their pipeline
 *    exit; a middle block needs none, because nothing reads its
 *    effect before the completing packet does. A whole train enters
 *    the pipeline as its blocks would, back to back: the exit ticks
 *    follow by arithmetic, the bytes land in the slot by swap, and the
 *    same claim and complete events are scheduled, in the same order.
 *  - Egress: without a fabric perturber, every message — a one-block
 *    send or replenish as much as a 25-block reply — leaves as one
 *    train: block 0's header plus one copy of its bytes
 *    (proto::makeTrain), handed to the fabric as it is posted, with
 *    its last block's egress tick as its departure
 *    (net::Fabric::send(train, depart)). The fabric delivers it whole,
 *    and within one domain schedules only that delivery, so no event
 *    fires at egress. So does a rendezvous pull, departing one counter
 *    update after its descriptor completes. Sends from a server go to
 *    the client side, whose only use of a middle block is to place it
 *    in the reply being assembled, read first by the completing
 *    block. A perturber must see each packet at its own tick, so
 *    fault runs inject a message packet by packet, one event per
 *    block.
 */

#ifndef RPCVALET_NI_BACKEND_HH
#define RPCVALET_NI_BACKEND_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/buffers.hh"
#include "net/fabric.hh"
#include "proto/packet.hh"
#include "proto/qp.hh"
#include "sim/domain.hh"

namespace rpcvalet::ni {

/** Backend pipeline occupancy per packet, both directions. */
constexpr sim::Tick backendPacketOccupancy = sim::nanoseconds(3.0);
/** Payload fetch from the memory hierarchy before the first packet of
 *  an egress message. */
constexpr sim::Tick txSetupLatency = sim::nanoseconds(4.5);

/** One NI backend (ingress + egress pipelines). */
class NiBackend
{
  public:
    /** Completion hook: a full message is ready for dispatch. */
    using CompletionHandler =
        std::function<void(std::uint32_t backend_id,
                           proto::CompletionQueueEntry)>;
    /** Hook for incoming replenish packets (free a local send slot). */
    using ReplenishHandler =
        std::function<void(proto::NodeId dst, std::uint32_t slot)>;

    /** Outgoing packets go into @p fabric. */
    NiBackend(sim::EventDomain &sim, std::uint32_t id, mem::RecvBuffer &recv,
              CompletionHandler on_complete, ReplenishHandler on_replenish,
              net::Fabric &fabric);

    /**
     * Fabric ingress: @p train (a whole message or one packet of it)
     * addressed to this node. Its blocks enter the pipeline back to
     * back at this tick; a whole train's bytes are taken by swap
     * (@p train comes back holding the slot's old buffer).
     */
    void receive(proto::Train &train);

    /**
     * Fault injection (ni-stall): the ingress pipeline stops draining
     * until @p until. Arriving packets queue behind the stall and
     * drain in order when it lifts — a microcode hiccup, not a crash:
     * nothing is dropped. Overlapping stalls keep the latest end.
     */
    void stallIngress(sim::Tick until);

    /**
     * Egress: transmit a message (send or replenish) to @p dst,
     * landing in per-pair slot @p slot at the destination.
     */
    void transmitMessage(proto::OpType op, proto::NodeId self,
                         proto::NodeId dst, std::uint32_t slot,
                         const std::vector<std::uint8_t> &payload);

    std::uint64_t packetsReceived() const { return packetsReceived_; }
    std::uint64_t packetsSent() const { return packetsSent_; }
    std::uint64_t completionsSignaled() const { return completions_; }

    /** Rendezvous pulls issued (§4.2 large-message path). */
    std::uint64_t rendezvousPulls() const { return rendezvousPulls_; }

    /** Aggregate busy time of the ingress pipeline (utilization). */
    sim::Tick ingressBusyTicks() const { return ingressBusy_; }

  private:
    /** Packet whose pipeline exit claims a slot, completes a message
     *  or carries a replenish (pooled). Only its header is left to
     *  read: the block was staged at arrival. */
    struct IngressEvent : sim::Event
    {
        NiBackend *backend = nullptr;
        proto::PacketHeader hdr;
        /** Send / read-response work left for the pipeline exit. */
        mem::Staged staged;

        void process() override;
        const char *description() const override
        {
            return "ni-ingress";
        }
    };

    /** A block leaving for the fabric on its own (a perturber is
     *  attached). */
    struct InjectEvent : sim::Event
    {
        NiBackend *backend = nullptr;
        proto::Packet pkt;

        void process() override;
        const char *description() const override
        {
            return "ni-inject";
        }
    };

    /** Message-completion notification riding the counter update. */
    struct CompletionEvent : sim::Event
    {
        NiBackend *backend = nullptr;
        proto::CompletionQueueEntry cqe;

        void process() override;
        const char *description() const override
        {
            return "ni-completion";
        }
    };

    /** Schedule the pipeline exit of the packet with header @p hdr at
     *  @p exit, carrying @p staged. */
    void scheduleIngress(const proto::PacketHeader &hdr,
                         mem::Staged staged, sim::Tick exit);
    void processIngress(const proto::PacketHeader &hdr, mem::Staged staged);
    void signalCompletion(std::uint32_t index, proto::NodeId src,
                          std::uint32_t conn_client);

    sim::EventDomain &sim_;
    std::uint32_t id_;
    mem::RecvBuffer &recv_;
    CompletionHandler onComplete_;
    ReplenishHandler onReplenish_;
    net::Fabric &fabric_;

    sim::Tick ingressFreeAt_ = 0;
    sim::Tick egressFreeAt_ = 0;
    /** Ingress pipeline stalled until this tick (fault injection). */
    sim::Tick stallUntil_ = 0;
    sim::Tick ingressBusy_ = 0;
    std::uint64_t packetsReceived_ = 0;
    std::uint64_t packetsSent_ = 0;
    std::uint64_t completions_ = 0;
    std::uint64_t rendezvousPulls_ = 0;
    /** Where a departing train is built; the fabric swaps its bytes
     *  out and leaves a spare buffer for the next one. */
    proto::Train txTrain_;
    sim::EventPool<IngressEvent> ingressPool_;
    sim::EventPool<InjectEvent> injectPool_;
    sim::EventPool<CompletionEvent> completionPool_;
};

} // namespace rpcvalet::ni

#endif // RPCVALET_NI_BACKEND_HH
