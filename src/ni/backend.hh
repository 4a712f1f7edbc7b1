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
 *    cache-block packets, each built straight into the pooled event
 *    that carries it, and stream them into the fabric.
 *
 *  Each direction is a serial pipeline with per-packet occupancy;
 *  queueing behind it under load produces the implementation
 *  contention the paper cites for its model-vs-simulation gap (§6.3).
 */

#ifndef RPCVALET_NI_BACKEND_HH
#define RPCVALET_NI_BACKEND_HH

#include <cstdint>
#include <functional>

#include "mem/buffers.hh"
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
    /** Packet injection into the inter-node fabric. */
    using Injector = std::function<void(const proto::Packet &)>;

    NiBackend(sim::EventDomain &sim, std::uint32_t id, mem::RecvBuffer &recv,
              CompletionHandler on_complete, ReplenishHandler on_replenish,
              Injector inject);

    /** Fabric ingress: a packet addressed to this node. */
    void receivePacket(const proto::Packet &pkt);

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
    /** Packet waiting out the ingress pipeline occupancy (pooled). */
    struct IngressEvent : sim::Event
    {
        NiBackend *backend = nullptr;
        proto::Packet pkt;
        sim::Tick arrival = 0;

        void process() override;
        const char *description() const override
        {
            return "ni-ingress";
        }
    };

    /** Packet leaving for the fabric: egress streams and rendezvous
     *  pulls (the latter count packetsSent at fire time). */
    struct InjectEvent : sim::Event
    {
        NiBackend *backend = nullptr;
        proto::Packet pkt;
        bool countOnFire = false;

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

    void processIngress(const proto::Packet &pkt, sim::Tick arrival);
    void signalCompletion(std::uint32_t index, proto::NodeId src,
                          std::uint32_t conn_client);

    sim::EventDomain &sim_;
    std::uint32_t id_;
    mem::RecvBuffer &recv_;
    CompletionHandler onComplete_;
    ReplenishHandler onReplenish_;
    Injector inject_;

    sim::Tick ingressFreeAt_ = 0;
    sim::Tick egressFreeAt_ = 0;
    /** Ingress pipeline stalled until this tick (fault injection). */
    sim::Tick stallUntil_ = 0;
    sim::Tick ingressBusy_ = 0;
    std::uint64_t packetsReceived_ = 0;
    std::uint64_t packetsSent_ = 0;
    std::uint64_t completions_ = 0;
    std::uint64_t rendezvousPulls_ = 0;
    sim::EventPool<IngressEvent> ingressPool_;
    sim::EventPool<InjectEvent> injectPool_;
    sim::EventPool<CompletionEvent> completionPool_;
};

} // namespace rpcvalet::ni

#endif // RPCVALET_NI_BACKEND_HH
