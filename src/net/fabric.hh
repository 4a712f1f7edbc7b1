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
 * (assignNode). Every node has one receiver, a Sink taking a
 * proto::Train: a whole message (send(train), posted at one tick from
 * one node to one node) or one packet of it (send(packet): a perturbed
 * or per-block NI send, or cross-domain mail), which the fabric makes
 * a one-packet train. A send between nodes of one domain schedules one
 * pooled delivery event latency ticks out on that domain's wheel, the
 * train's byte buffer swapped in, not copied. A whole train's blocks
 * arrive together, in block order — exactly the order in which one
 * event per packet would fire, since those events would sit back to
 * back in the tick's FIFO. A perturber must see every packet at its
 * own posting tick, so with one attached trains are unrolled into
 * packets as they are posted, and senders that would merge packets of
 * different ticks into one train (fusesTrains()) keep them apart. A
 * train that crosses domains is unrolled straight into its edge
 * mailbox, one entry per packet. A sender that knows a train's
 * departure tick ahead of time (an NI egress pipeline) hands it over
 * at once with send(train, depart): unperturbed within one domain the
 * fabric schedules its delivery right then, at depart + latency, so
 * no event fires at departure; otherwise a pooled departure event on
 * the source domain makes the send at depart, so a perturber still
 * sees each packet at its posting tick and mail is still posted in
 * its departure window, in posting order. connect() with a packet
 * sink is an adapter for readers of packets (tools and tests): it
 * unrolls each train into the sink, block by block. A packet sent
 * across domains (conservative parallel DES) is posted to the (src
 * domain, dst domain) edge mailbox stamped with its delivery time.
 * The run's synchronization window is the link latency: a packet sent
 * inside the window [T, T + latency) is due at send time + latency,
 * never before the window ends — every cross-domain post asserts
 * this. So mail posted in window W is first due in
 * window W + 1, and is delivered there by its destination's owner:
 * the barrier only closes the window (closeWindow(), O(1)), and
 * drainInbox(d), run by domain d's fixed owner (the core::WindowPool
 * worker that executes d in every window) just before d's next
 * window, gathers d's mail, orders it deterministically and schedules
 * it into d's wheel, coalescing packets that arrive at the same tick
 * into one batched ingress event, which hands each to its sink as a
 * one-packet train.
 *
 * Mailbox ownership protocol (multi-domain runs):
 *  - There are two banks of edge mailboxes, indexed by window parity.
 *    During window W every source posts into bank W mod 2 (the open
 *    bank) and every destination drains bank (W - 1) mod 2 (the
 *    closed bank, holding the mail of window W - 1).
 *  - In the open bank, edge (s, d) is written only by the thread that
 *    owns domain s during the window.
 *  - In the closed bank, edge (s, d) is read and emptied only by the
 *    thread that owns domain d, inside drainInbox(d), before d runs.
 *    No thread touches the closed bank's other edges on d's behalf.
 *  - closeWindow() runs only at the barrier, on the coordinator,
 *    while every domain thread is quiescent: it flips the banks and
 *    arms the next window end. The barrier's release/acquire pair
 *    (core::WindowPool) publishes both the posts of window W - 1 to
 *    their drainers and each drainer's emptied edges to the sources
 *    that post into that bank again in window W + 1.
 *  - Every edge mailbox header and every domain's state sits on cache
 *    lines of its own, so no two workers write one of those lines.
 *  - connect()/assignNode() happen at construction time, before any
 *    worker exists; the sink and domain tables (dense vectors indexed
 *    by NodeId, so a delivery pays one bounds check rather than a
 *    hash lookup) are read-only afterwards.
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
    /** Receiver of a node's trains, one call per train (whole
     *  message or lone packet). The train lives in a pooled event and
     *  is valid only during the call; the sink may take its bytes by
     *  swapping in a buffer of its own (whose capacity the fabric
     *  recycles). */
    using Sink = std::function<void(proto::Train &)>;
    /** Receiver of a node's packets, one call per packet (see
     *  connect(node, PacketSink)). The packet is valid only during
     *  the call. */
    using PacketSink = std::function<void(const proto::Packet &)>;

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
     * Attach the receiver for trains addressed to @p node. Registering
     * the same node twice is fatal (matching the registries'
     * duplicate-key behavior): the old behavior of silently
     * overwriting the first sink dropped its traffic.
     */
    void connect(proto::NodeId node, Sink sink);

    /**
     * connect() for a reader of packets: each train reaches @p sink
     * unrolled (proto::trainPacket), one call per block, in block
     * order.
     */
    void connect(proto::NodeId node, PacketSink sink);

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

    /**
     * Inject a lone packet; it arrives at its destination after
     * latency, as a one-packet train. Copied only when a perturber is
     * attached, which may mutate it.
     */
    void send(const proto::Packet &pkt);

    /**
     * Whether a train may travel as one event: true unless a
     * perturber is attached, which must see every packet at its own
     * posting tick (in Rng draw order). A sender whose packets leave
     * at different ticks asks this before it merges them into one
     * train posted at the last packet's tick.
     */
    bool fusesTrains() const { return perturber_ == nullptr; }

    /**
     * Inject a train — a whole message or one packet of it — posted
     * at this tick. Its packets arrive after latency exactly as if
     * sent one by one; without a perturber a same-domain train is
     * delivered by one pooled event, as it is. A cross-domain train
     * posts one mail entry per packet, and drainInbox() coalesces
     * them; with a perturber every packet is perturbed and posted on
     * its own. The delivery event takes a same-domain train's bytes by
     * a buffer swap, not a copy: @p train may come back holding a
     * spare buffer, which the caller may refill.
     */
    void send(proto::Train &train);

    /**
     * Inject a train that leaves its sender at absolute tick
     * @p depart (>= now): the hand-off of a sender that knows its
     * departure tick ahead of time, such as an NI egress pipeline.
     * Its packets arrive exactly as if send(train) were called at
     * @p depart. Unperturbed within one domain, nothing can see the
     * train before it lands, so its delivery is scheduled now, at
     * @p depart + latency, and no event fires at departure. Otherwise
     * — a perturber must see each packet at its posting tick, and
     * cross-domain mail must be posted in its departure window — one
     * pooled departure event on the source domain runs send(train) at
     * @p depart. The bytes move by swap, as in send(train).
     */
    void send(proto::Train &train, sim::Tick depart);

    /**
     * Barrier step (two or more domains; coordinator only, all domain
     * threads quiescent): close the executing window — its mail is
     * parked in the closed bank for drainInbox() — and arm the next
     * window, which ends at @p nextWindowEnd. O(1): no packet is
     * touched.
     */
    void closeWindow(sim::Tick nextWindowEnd);

    /**
     * Window prologue of domain @p dst (two or more domains; run by
     * the thread that owns @p dst, before it executes the window):
     * schedule the closed bank's mail for @p dst into its wheel in
     * deterministic (time, source domain, posting order) order,
     * independent of worker count, and empty those edges.
     */
    void drainInbox(sim::DomainId dst);

    /**
     * Cross-domain packets parked in the closed bank, not yet drained
     * (coordinator only, at the barrier). A run whose wheels are all
     * empty is still live while this is non-zero.
     */
    std::uint64_t parkedMail() const;

    /** Packets posted across a domain edge so far (all domains; 0 on
     *  a one-domain fabric). */
    std::uint64_t crossDomainMail() const;

    /** Packets delivered so far (all domains; a train counts its
     *  blocks). */
    std::uint64_t delivered() const;

    /** One-way propagation delay per packet. */
    sim::Tick latency() const { return latency_; }

  private:
    /** In-flight same-domain train: pooled, its buffer reused. */
    struct DeliverEvent : sim::Event
    {
        Fabric *fabric = nullptr;
        sim::DomainId dom = 0;
        proto::Train train;

        void process() override;
        const char *description() const override
        {
            return "fabric-deliver";
        }
    };

    /** A train waiting for its departure tick on the source domain
     *  (perturbed or cross-domain send(train, depart)): pooled. */
    struct DepartEvent : sim::Event
    {
        Fabric *fabric = nullptr;
        sim::DomainId dom = 0;
        proto::Train train;

        void process() override;
        const char *description() const override
        {
            return "fabric-depart";
        }
    };

    /**
     * Several packets due at one (domain, tick) on a single event, in
     * order: the cross-domain mail drainInbox() coalesces.
     */
    struct BatchDeliverEvent : sim::Event
    {
        Fabric *fabric = nullptr;
        sim::DomainId dom = 0;
        std::vector<proto::Packet> pkts;
        /** The packet being delivered, as a one-packet train. */
        proto::Train train;

        void process() override;
        const char *description() const override
        {
            return "fabric-deliver-batch";
        }
    };

    /** Cache-line size assumed for false-sharing padding (x86-64). */
    static constexpr std::size_t kCacheLine = 64;

    /** A cross-domain packet parked in an edge mailbox. */
    struct Mail
    {
        proto::Packet pkt;
        sim::Tick when = 0;       ///< absolute delivery time
        sim::DomainId src = 0;    ///< posting domain (sort tiebreak)
        std::uint64_t seq = 0;    ///< per-edge posting order
    };

    /** Per-domain state, touched only by the domain's owner thread
     *  (except at the barrier, where the coordinator owns all). */
    struct alignas(kCacheLine) DomainState
    {
        sim::EventDomain *sim = nullptr;
        std::uint64_t delivered = 0;
        /** Packets this domain posted across a domain edge. */
        std::uint64_t posted = 0;
        sim::EventPool<DeliverEvent> pool;
        sim::EventPool<DepartEvent> departPool;
        sim::EventPool<BatchDeliverEvent> batchPool;
        /** drainInbox() scratch (reused, no steady-state alloc). */
        std::vector<Mail> drainScratch;
    };

    /** One edge mailbox, alone on its cache lines: in a bank, a
     *  source's row is written by that source and emptied edge by
     *  edge by the destinations' drainers. */
    struct alignas(kCacheLine) Edge
    {
        std::vector<Mail> mail;
    };

    /** nodeDomain_ entry of a node never passed to assignNode(). */
    static constexpr sim::DomainId kUnassigned = ~sim::DomainId{0};

    /** Schedule @p train's delivery on domain @p dom (its source's
     *  too) at @p when, taking its bytes by swap. */
    void deliverAt(sim::DomainId dom, proto::Train &train, sim::Tick when);
    /** Hand @p train to its destination's sink. */
    void deliver(sim::DomainId dom, proto::Train &train);
    /** perturb() @p pkt (a perturber is attached); post it unless
     *  dropped. */
    void perturbAndPost(proto::Packet &pkt);
    /** Post @p pkt to arrive @p extra ticks after latency. */
    void post(const proto::Packet &pkt, sim::Tick extra);
    /** The (src, dst) edge's new mail entry, due at @p when, for the
     *  caller to fill with its packet. */
    proto::Packet &postMail(sim::DomainId src, sim::DomainId dst,
                            sim::Tick when);
    sim::DomainId domainOf(proto::NodeId node) const;
    /** Edge (src, dst) of bank @p bank. */
    Edge &edge(unsigned bank, sim::DomainId src, sim::DomainId dst);

    std::vector<std::unique_ptr<DomainState>> domains_;
    sim::Tick latency_;
    /** End of the window currently executing (multi-domain). */
    sim::Tick windowEnd_ = 0;
    /** Bank the executing window posts into; the other one is closed. */
    unsigned openBank_ = 0;
    /** Edge mailboxes of both banks, [bank][src][dst] row-major. */
    std::vector<Edge> mailboxes_;
    /** Domain of each assigned node, indexed by NodeId. */
    std::vector<sim::DomainId> nodeDomain_;
    /** Sink of each node, indexed by NodeId; empty = not connected,
     *  so a packet to the node is fatal. */
    std::vector<Sink> receivers_;
    /** Optional fault-injection hook (not owned). */
    PacketPerturber *perturber_ = nullptr;
};

} // namespace rpcvalet::net

#endif // RPCVALET_NET_FABRIC_HH
