/**
 * @file
 * Inter-node network fabric.
 *
 * A fixed-latency, per-packet delivery fabric connecting the modeled
 * nodes. soNUMA-class fabrics are low-latency rack-scale
 * interconnects; congestion happens at the endpoints' NI pipelines,
 * which the NI model covers, so the fabric itself is contention-free
 * by design: the paper's §5 setup drives the server over a network of
 * fixed one-way latency.
 *
 * One fabric spans one or more EventDomains; a sequential run is the
 * one-domain case. Nodes live on domain 0 unless assigned elsewhere
 * (assignNode). A send between nodes of one domain schedules a pooled
 * delivery event latency ticks out on that domain's wheel. A send
 * across domains (conservative parallel DES) is posted to the (src
 * domain, dst domain) edge mailbox stamped with its delivery time.
 * The run's synchronization window is the link latency: a packet sent
 * inside the window [T, T + latency) is due at send time + latency,
 * never before the window ends — send() asserts this on every
 * cross-domain packet. At the barrier, exchangeWindow() drains every
 * edge in a deterministic order and schedules the mail into the
 * destination wheels, coalescing packets that arrive at the same
 * (domain, tick) into one batched ingress event.
 *
 * Mailbox ownership protocol (multi-domain runs):
 *  - During a window, edge (s, d) is written only by the thread that
 *    owns domain s; no other thread reads or writes it.
 *  - exchangeWindow() runs only at the barrier, on the coordinator,
 *    while every domain thread is quiescent; the barrier's
 *    release/acquire pair (core::WindowPool) publishes the mailboxes.
 *  - connect()/connectDefault()/assignNode() happen at construction
 *    time, before any worker exists; the sink and domain tables
 *    (dense vectors indexed by NodeId, so a delivery pays one bounds
 *    check rather than a hash lookup) are read-only afterwards.
 */

#ifndef RPCVALET_NET_FABRIC_HH
#define RPCVALET_NET_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "proto/packet.hh"
#include "sim/domain.hh"

namespace rpcvalet::net {

/**
 * Hook applied to every packet at injection time — the fabric/NI
 * boundary where packet-level faults (loss, delay, corruption) live.
 * perturb() runs on the posting domain's thread inside send(), so an
 * implementation serving a parallel run must keep per-domain state
 * (see fault::PacketFaults) and may not touch other domains' lanes.
 */
class PacketPerturber
{
  public:
    /** What happens to one packet. */
    struct Verdict
    {
        /** Drop the packet (it never arrives; no event scheduled). */
        bool drop = false;
        /** Extra one-way latency on top of the fabric's. Only ever
         *  additive, so the conservative lookahead invariant (delivery
         *  >= send + latency >= window end) is preserved for free. */
        sim::Tick extraLatency = 0;
    };

    virtual ~PacketPerturber() = default;

    /**
     * Inspect (and possibly mutate, e.g. corrupt) @p pkt, posted on
     * @p domain at local time @p now.
     */
    virtual Verdict perturb(proto::Packet &pkt, sim::DomainId domain,
                            sim::Tick now) = 0;
};

/** Point-to-point packet delivery with constant propagation delay. */
class Fabric
{
  public:
    /** Receiver of a node's packets. The packet lives in a pooled
     *  event and is valid only during the call: a sink copies what
     *  it keeps. */
    using Sink = std::function<void(const proto::Packet &)>;

    /**
     * @param domains   One entry per domain; entry i must be the
     *                  domain with id i (id 0 is the default home of
     *                  unassigned nodes — by convention the client
     *                  side).
     * @param latency   One-way propagation delay per packet, and the
     *                  synchronization window of a multi-domain run.
     *                  Zero is fatal with two or more domains: a
     *                  cross-domain packet would be due inside the
     *                  window it was sent in.
     */
    Fabric(std::vector<sim::EventDomain *> domains, sim::Tick latency);

    /** One-domain fabric: every node lives on @p sim (domain id 0). */
    Fabric(sim::EventDomain &sim, sim::Tick latency)
        : Fabric(std::vector<sim::EventDomain *>{&sim}, latency)
    {}

    /**
     * Attach the receiver for packets addressed to @p node.
     * Registering the same node twice is fatal (matching the
     * registries' duplicate-key behavior): the old behavior of
     * silently overwriting the first sink dropped its traffic.
     */
    void connect(proto::NodeId node, Sink sink);

    /**
     * Attach the receiver for all nodes without an explicit sink.
     * Fatal if a default sink is already attached.
     */
    void connectDefault(Sink sink);

    /**
     * Place @p node on @p domain (fabrics of two or more domains only;
     * nodes never assigned live on domain 0). Construction-time only — see
     * the ownership protocol above.
     */
    void assignNode(proto::NodeId node, sim::DomainId domain);

    /**
     * Attach a packet perturber (fault injection). Construction-time
     * only, like connect(); at most one, null detaches. The perturber
     * sees every packet from every node, before latency is applied.
     */
    void setPerturber(PacketPerturber *perturber);

    /** Inject a packet; it arrives at its destination after latency. */
    void send(proto::Packet pkt);

    /**
     * Barrier step (two or more domains; coordinator only, all domain
     * threads quiescent): deliver the closing window's cross-domain
     * mail into the destination wheels in deterministic (time, source
     * domain, posting order) order, then arm the next window, which
     * ends at @p nextWindowEnd.
     */
    void exchangeWindow(sim::Tick nextWindowEnd);

    /** Packets delivered so far (all domains). */
    std::uint64_t delivered() const;

    /** One-way propagation delay per packet. */
    sim::Tick latency() const { return latency_; }

  private:
    /** In-flight packet: pooled, reused across deliveries. */
    struct DeliverEvent : sim::Event
    {
        Fabric *fabric = nullptr;
        sim::DomainId dom = 0;
        proto::Packet pkt;

        void process() override;
        const char *description() const override
        {
            return "fabric-deliver";
        }
    };

    /**
     * Coalesced cross-domain ingress: every packet due at one
     * (domain, tick) rides a single event, in deterministic order.
     */
    struct BatchDeliverEvent : sim::Event
    {
        Fabric *fabric = nullptr;
        sim::DomainId dom = 0;
        std::vector<proto::Packet> pkts;

        void process() override;
        const char *description() const override
        {
            return "fabric-deliver-batch";
        }
    };

    /** A cross-domain packet parked in an edge mailbox. */
    struct Mail
    {
        proto::Packet pkt;
        sim::Tick when = 0;       ///< absolute delivery time
        sim::DomainId src = 0;    ///< posting domain (sort tiebreak)
        sim::DomainId dst = 0;    ///< destination domain
        std::uint64_t seq = 0;    ///< per-edge posting order
    };

    /** Per-domain state, touched only by the domain's owner thread
     *  (except at the barrier, where the coordinator owns all). */
    struct DomainState
    {
        sim::EventDomain *sim = nullptr;
        std::uint64_t delivered = 0;
        sim::EventPool<DeliverEvent> pool;
        sim::EventPool<BatchDeliverEvent> batchPool;
    };

    /** nodeDomain_ entry of a node never passed to assignNode(). */
    static constexpr sim::DomainId kUnassigned = ~sim::DomainId{0};

    void deliver(sim::DomainId dom, const proto::Packet &pkt);
    sim::DomainId domainOf(proto::NodeId node) const;

    std::vector<std::unique_ptr<DomainState>> domains_;
    sim::Tick latency_;
    /** End of the window currently executing (multi-domain). */
    sim::Tick windowEnd_ = 0;
    /** Edge mailboxes, row-major [src * numDomains + dst]. */
    std::vector<std::vector<Mail>> mailboxes_;
    /** Domain of each assigned node, indexed by NodeId. */
    std::vector<sim::DomainId> nodeDomain_;
    /** Explicit receiver of each node, indexed by NodeId (empty =
     *  none: the default sink takes its packets). */
    std::vector<Sink> sinks_;
    Sink defaultSink_;
    /** Optional fault-injection hook (not owned). */
    PacketPerturber *perturber_ = nullptr;
    /** Barrier drain scratch (coordinator only; reused, no alloc). */
    std::vector<Mail> drainScratch_;
};

} // namespace rpcvalet::net

#endif // RPCVALET_NET_FABRIC_HH
