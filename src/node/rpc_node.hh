/**
 * @file
 * The modeled server: 16 cores, Manycore NI, messaging buffers and
 * dispatch plumbing, executing the §5 microbenchmark loop over a real
 * application.
 *
 * Per-RPC timeline (hardware modes):
 *   fabric -> NI backend ingress (per-packet pipeline) -> receive
 *   buffer write + counter -> message completion -> dispatch
 *   (mode-dependent) -> core private CQ -> core runs the loop:
 *   poll/parse/read + application processing X + reply send (slot-
 *   mirrored) + replenish. Latency is measured from the first packet's
 *   arrival at the NI until the core posts its replenish (§5).
 *
 * Events of one one-block RPC on the single-queue path, 17 in all:
 *   - client: the arrival, and the turnaround before it replenishes
 *     the reply's slot (2);
 *   - fabric deliveries: request, reply and both replenishes (4). The
 *     NI hands its reply and replenish to the fabric with their
 *     egress ticks, so no event fires as they leave;
 *   - NI ingress: the request's pipeline exit and its completion
 *     notification, and the client replenish's exit (3);
 *   - completion forward to the dispatcher (CqeEvent), and the
 *     dispatcher's delivery into the core's private CQ at its
 *     pipeline exit plus the core's mesh and QP delay (2);
 *   - the core's reply, finish and loop stages (ServiceEvent) (3);
 *   - the core's posts (PostEvent): send WQE, replenish WQE and
 *     credit return (3).
 * Every fixed on-chip delay (CQE delivery, WQE post, completion
 * forward) is a table lookup filled at construction.
 */

#ifndef RPCVALET_NODE_RPC_NODE_HH
#define RPCVALET_NODE_RPC_NODE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "app/rpc_application.hh"
#include "mem/buffers.hh"
#include "net/fabric.hh"
#include "ni/backend.hh"
#include "ni/dispatcher.hh"
#include "noc/mesh.hh"
#include "node/params.hh"
#include "proto/qp.hh"
#include "sync/mcs_queue.hh"

namespace rpcvalet::node {

/**
 * Per-RPC core-side step costs of the §5 microbenchmark loop:
 * (i) poll for a CQE, (ii) execute the RPC's processing time X,
 * (iii) send a reply, (iv) replenish. They are calibrated so the HERD
 * workload's measured mean service time lands at §6.1's ~550 ns for a
 * 330 ns mean processing time (i.e. ~220 ns of loop overhead), pinned
 * by tests/node/calibration_test.cc.
 */
namespace costs {

/** Detecting a fresh CQE when the core was idle-polling. */
constexpr sim::Tick pollDetect = sim::nanoseconds(15.0);
/** Parsing the CQE and locating the receive slot. */
constexpr sim::Tick cqeParse = sim::nanoseconds(10.0);
/** Reading the request payload out of the receive buffer. */
constexpr sim::Tick requestRead = sim::nanoseconds(45.0);
/** Request unmarshalling and handler dispatch. */
constexpr sim::Tick appDispatch = sim::nanoseconds(45.0);
/** Building the reply message in the send buffer. */
constexpr sim::Tick replyBuild = sim::nanoseconds(25.0);
/** Posting the reply's send WQE. */
constexpr sim::Tick sendPost = sim::nanoseconds(30.0);
/** Posting the replenish WQE (end of latency measurement, §5). */
constexpr sim::Tick replenishPost = sim::nanoseconds(30.0);
/** Event-loop bookkeeping before the next poll. */
constexpr sim::Tick loopOverhead = sim::nanoseconds(20.0);

/** Total per-RPC overhead excluding processing time X. */
constexpr sim::Tick totalOverhead = pollDetect + cqeParse + requestRead +
                                    appDispatch + replyBuild + sendPost +
                                    replenishPost + loopOverhead;

} // namespace costs

/** Context save/restore cost paid at every preemption yield and
 *  resume (SystemParams::preemptionQuantum). */
constexpr sim::Tick preemptionOverhead = sim::nanoseconds(250.0);

/** Retry interval when a reply's send slot is still in flight. */
constexpr sim::Tick sendSlotRetry = sim::nanoseconds(20.0);

/**
 * Minimum gap between QP context-fetch starts: the NI's fetch engine is
 * pipelined but finite, so sustained misses above 1/qpFetchGap queue
 * behind each other (thrash costs throughput, not just latency).
 */
constexpr sim::Tick qpFetchGap = sim::nanoseconds(200.0);

/** Context-fetch penalty a QP-cache miss pays before dispatch (a
 *  DRAM/PCIe read of the connection context); fetch starts are at
 *  least qpFetchGap apart. */
constexpr sim::Tick qpColdFetch = sim::microseconds(1.0);

/** One simulated RPC server node. */
class RpcNode
{
  public:
    /** Called after each served RPC. */
    using CompletionHook = std::function<void()>;

    /**
     * What the experiment layer derives for each node from the run as
     * a whole rather than from SystemParams. The defaults are node 0
     * with no reply-slot lease and an unbounded QP cache.
     */
    struct Derived
    {
        /** The node's fabric address. Servers occupy node ids
         *  [0, number of servers) of the messaging domain. */
        proto::NodeId id = 0;
        /**
         * Give up waiting for a mirrored reply slot after this long
         * and evict its occupant (0 = wait forever, the lossless-
         * fabric default). On a lossless fabric a busy slot always
         * drains — the client's replenish is at most a round trip plus
         * turnaround away — but when fault injection can drop a reply
         * packet, that replenish never comes and the core spinning in
         * attemptReply would be lost for the rest of the run. The
         * experiment layer sets the lease (2x the client request
         * timeout) only when a packet-loss fault is active, so
         * fault-free runs keep the plain wait.
         */
        sim::Tick replySlotLease = 0;
        /**
         * Connection-context (QP) cache capacity of the NI, in
         * connections (0 = unbounded: no connection state is ever
         * scarce). When positive, the node keys an LRU cache on (src
         * node, logical client) — every message carries its client,
         * see proto::PacketHeader::connClient — and a miss delays the
         * message's dispatch by qpColdFetch while the NI pulls the
         * context from memory. The experiment layer bounds it only
         * under a named client population (conn::ConnConfig::active()),
         * taking it from conn::effectiveQpCapacity.
         */
        std::uint32_t qpCacheCapacity = 0;
    };

    /**
     * @param sim      Owning simulator.
     * @param params   Validated system parameters.
     * @param app      Application served by this node.
     * @param fabric   Inter-node fabric (node attaches itself).
     * @param derived  Per-node values derived from the run.
     */
    RpcNode(sim::EventDomain &sim, const SystemParams &params,
            app::RpcApplication &app, net::Fabric &fabric,
            const Derived &derived);

    /** Software mode: park all cores on the shared queue. */
    void start();

    /** Fabric sink: a whole message or one packet addressed to this
     *  node, handed to its ingress backend as it came. */
    void receive(proto::Train &train);

    /** Register a hook run after every completed RPC. */
    void setCompletionHook(CompletionHook hook);

    /**
     * Issues a handler's nested RPCs (app::HandleResult::nested) into
     * the cluster, then runs the given completion once every one of
     * them has been served. The experiment layer wires the traffic
     * generator's issueNested() here; leaving it unset is fatal only
     * when a workload actually nests.
     */
    using NestedIssuer = std::function<void(
        std::vector<std::vector<std::uint8_t>>, std::function<void()>)>;

    /** Register the cluster-side issuer for nested RPCs. */
    void setNestedIssuer(NestedIssuer issuer);

    /**
     * Fault injection: a failed node silently drops every incoming
     * packet (requests, replenishes, read responses), exactly like a
     * crashed machine whose NIC port went dark. In-flight RPCs that
     * already reached a core still complete.
     */
    void setFailed(bool failed) { failed_ = failed; }

    /** Whether this node is currently dropping packets. */
    bool failed() const { return failed_; }

    /**
     * Fault injection (ni-stall): every NI backend's ingress pipeline
     * stops draining until @p until; packets queue and drain in order
     * when the stall lifts.
     */
    void stallNi(sim::Tick until);

    /**
     * Fault injection (slow-core): multiply @p core's application
     * processing time by @p factor (1.0 restores full speed). Applies
     * to RPCs whose handler runs while the factor is set.
     */
    void setCoreSlowdown(proto::CoreId core, double factor);

    /**
     * Enable/disable the sample log (the experiment switches it on
     * when the measurement window opens; served counters always run).
     * On by default.
     */
    void setRecording(bool recording) { recording_ = recording; }

    /** Packets dropped while failed. */
    std::uint64_t droppedPackets() const { return droppedPackets_; }

    // ----- measurement -----

    /**
     * One measured RPC, as the node logs it: the pipeline ticks that
     * bound the paper's end-to-end latency (first packet at the NI to
     * the core's replenish, §5) and its components — reassembly at
     * the NI backend (first packet to message completion), dispatch
     * (shared-CQ wait + credit wait + delivery, up to the private
     * CQ), private-CQ wait at the core (delivery to service start),
     * and core service (service start to replenish). For a chained
     * parent the service component spans its processing, the
     * nested-chain wait, and the reply build — the wall-clock shape
     * of its RPC — even though the core itself was released at
     * fan-out (S-bar excludes the wait). The harvest derives every
     * latency summary (point, per class, per node, breakdown,
     * degraded/healthy split) from these records.
     */
    struct Sample
    {
        sim::Tick firstPacketTick = 0;
        sim::Tick completionTick = 0;
        sim::Tick deliveredTick = 0;
        sim::Tick busyStart = 0;
        /** When the core posted the replenish (measurement ends). */
        sim::Tick replenishTick = 0;
        /** Class id the handler echoed (app::HandleResult::classId),
         *  unclamped: a stray id is the harvest's to place. */
        std::uint8_t classId = 0;
        bool latencyCritical = true;
    };

    /** Every RPC completed while recording was on, in completion
     *  order. */
    const std::vector<Sample> &samples() const { return samples_; }

    /** Completed RPCs (all kinds). */
    std::uint64_t served() const { return servedTotal_; }

    /** Completed latency-critical RPCs. */
    std::uint64_t servedCritical() const { return servedCritical_; }

    /** Mean core occupancy per RPC, ns (the measured S-bar of §6.1). */
    double meanServiceTimeNs() const;

    /** Per-core served counts (balance diagnostics). */
    std::vector<std::uint64_t> perCoreServed() const;

    /** Times a reply had to wait for its mirrored send slot. */
    std::uint64_t replySlotStalls() const { return replySlotStalls_; }

    /** Dead reply-slot occupants evicted after the slot lease expired
     *  (only possible when packet loss swallowed a reply, so its
     *  replenish can never arrive; see Derived::replySlotLease). */
    std::uint64_t replySlotEvictions() const { return replySlotEvictions_; }

    /** Preemption yields taken (0 unless preemptionQuantum is set). */
    std::uint64_t preemptionYields() const { return preemptionYields_; }

    /** QP-cache hits (0 unless qpCacheCapacity is set). */
    std::uint64_t qpCacheHits() const { return qpHits_; }

    /** QP-cache misses, each paying qpColdFetch before dispatch. */
    std::uint64_t qpCacheMisses() const { return qpMisses_; }

    /** Peak busy receive slots over the whole run, warmup included:
     *  the receive-buffer footprint the node must provision. */
    std::uint32_t recvSlotPeak() const;

    /** Currently busy receive slots (0 after a full drain). */
    std::uint32_t recvSlotsBusy() const;

    /** Dispatcher introspection (null in 16x1 / software modes). */
    const ni::Dispatcher *dispatcher(std::uint32_t index) const;

    /** Software shared queue (null in hardware modes). */
    const sync::SoftwareSharedQueue *softwareQueue() const;

    /** NI backend introspection. */
    const ni::NiBackend &backend(std::uint32_t index) const;

  private:
    struct Core
    {
        bool busy = false;
        proto::Fifo<proto::CompletionQueueEntry> privateCq;
        std::uint64_t served = 0;
    };

    /**
     * Pooled CQE carrier for the dispatch-plumbing hops that ride a
     * modeled latency: backend → dispatcher forwarding, CQE delivery
     * into a core's private CQ under static hashing (a dispatcher
     * delivers its own), and software-queue pushes. Reused across
     * hops, so the per-RPC steady state never allocates.
     */
    struct CqeEvent : sim::Event
    {
        enum class Kind : std::uint8_t
        {
            DispatchEnqueue, ///< dispatchers_[0]->enqueue (§4.3 fwd)
            Deliver,         ///< deliverCqeToCore
            SwPush,          ///< swQueue_->push (§6.2)
        };

        RpcNode *node = nullptr;
        Kind kind = Kind::Deliver;
        proto::CoreId core = 0;
        proto::CompletionQueueEntry cqe;

        void process() override;
        const char *description() const override { return "cqe-hop"; }
    };

    /**
     * Pooled per-RPC service event: one object walks an RPC through
     * its core-side stages — preemption yield (+ the dispatcher
     * notify it sends), reply posting (with slot-stall retries),
     * replenish/finish, and the loop-overhead epilogue. Replaces the
     * per-stage allocating closures of the §5 service loop.
     */
    struct ServiceEvent : sim::Event
    {
        enum class Stage : std::uint8_t
        {
            Yield,       ///< quantum expired: bank continuation
            YieldNotify, ///< re-enqueue + credit return at dispatcher
            NestedIssue, ///< handler done: fan out nested RPCs
            Reply,       ///< attempt the slot-mirrored reply
            Finish,      ///< replenish posted; record + clean up
            Loop,        ///< §5 loop bookkeeping, then pull next
        };

        RpcNode *node = nullptr;
        Stage stage = Stage::Reply;
        proto::CoreId core = 0;
        std::uint32_t dispatcher = 0; ///< YieldNotify target
        bool critical = false;
        /** Parent RPC whose core was released while its nested chain
         *  ran (the reply resumed off-core; see issueNestedStage). */
        bool detached = false;
        proto::CompletionQueueEntry cqe;
        app::HandleResult result;
        sim::Tick busyStart = 0;
        /** When this reply first found its mirrored slot busy (0 =
         *  not stalled); drives the reply-slot lease. */
        sim::Tick replyWaitStart = 0;

        void process() override;
        const char *description() const override
        {
            return "rpc-service";
        }
    };

    /**
     * Pooled carrier for the fixed-delay posts a core makes after its
     * handler: the reply's send WQE and the replenish WQE reaching the
     * egress backend, and the credit return reaching the dispatcher.
     * Keeps one-shot closures off the per-RPC path.
     */
    struct PostEvent : sim::Event
    {
        enum class Kind : std::uint8_t
        {
            SendWqe,      ///< transmit the reply (§4.2 send)
            ReplenishWqe, ///< transmit the replenish (§4.2 step C)
            Credit,       ///< dispatcher onReplenish (§4.3)
        };

        RpcNode *node = nullptr;
        Kind kind = Kind::SendWqe;
        /** Egress backend (WQEs) or dispatcher (Credit). */
        std::uint32_t target = 0;
        proto::NodeId requester = 0;
        /** Mirrored slot (WQEs) or freed core (Credit). */
        std::uint32_t arg = 0;

        void process() override;
        const char *description() const override { return "core-post"; }
    };

    // --- wiring helpers ---
    std::uint32_t ingressBackendFor(proto::NodeId src,
                                    std::uint32_t slot) const;
    /** A core transmits through its row's edge backend (nearest). */
    std::uint32_t egressBackendFor(proto::CoreId core) const
    {
        return egressBackend_[core];
    }
    proto::CoreId staticHashCore(proto::NodeId src,
                                 std::uint32_t slot) const;
    /** Dispatcher serving a core, and the delay of a core-to-
     *  dispatcher notification (credit return, yield). */
    struct DispatcherHop
    {
        std::uint32_t dispatcher;
        sim::Tick delay;
    };
    /** Hardware dispatch modes only (hasDispatcher()). */
    DispatcherHop dispatcherHopFor(proto::CoreId core) const;
    /** Backend-to-core CQE delivery: mesh hop plus QP transfer. */
    sim::Tick cqeDeliveryDelay(std::uint32_t backend_id,
                               proto::CoreId core) const
    {
        return cqeDelay_[backend_id * cores_.size() + core];
    }
    /** Core-to-backend WQE post: QP transfer plus mesh hop. */
    sim::Tick wqeDelay(proto::CoreId core, std::uint32_t backend_id) const
    {
        return wqeDelay_[core * backends_.size() + backend_id];
    }

    // --- event flow ---
    void onMessageComplete(std::uint32_t backend_id,
                           proto::CompletionQueueEntry cqe);
    /** True iff the message's connection context is cached (touches
     *  the LRU either way; only called when a cache is configured). */
    bool qpCacheLookup(proto::NodeId src, std::uint32_t conn_client);
    void dispatchMessage(std::uint32_t backend_id,
                         proto::CompletionQueueEntry cqe);
    void scheduleCqeHop(CqeEvent::Kind kind, proto::CoreId core,
                        proto::CompletionQueueEntry cqe, sim::Tick delay);
    void deliverCqeToCore(proto::CoreId core,
                          proto::CompletionQueueEntry cqe);
    void coreMaybeStart(proto::CoreId core, bool was_idle);
    void runRpc(proto::CoreId core, proto::CompletionQueueEntry cqe,
                bool was_idle);
    bool hasDispatcher() const;
    void runSlice(proto::CoreId core, proto::CompletionQueueEntry cqe,
                  sim::Tick pre_cost, sim::Tick busy_start);
    /** Acquire a pooled service event for @p core's RPC and schedule
     *  its @p stage @p delay ticks out. */
    void scheduleService(ServiceEvent::Stage stage, proto::CoreId core,
                         proto::CompletionQueueEntry cqe,
                         app::HandleResult result, sim::Tick busy_start,
                         sim::Tick delay);
    void serviceStage(ServiceEvent &ev);
    void yieldRpc(ServiceEvent &ev);
    void issueNestedStage(ServiceEvent &ev);
    void attemptReply(ServiceEvent &ev);
    void finishRpc(ServiceEvent &ev);
    void notifyDispatcherCredit(proto::CoreId core);
    void schedulePost(PostEvent::Kind kind, std::uint32_t target,
                      proto::NodeId requester, std::uint32_t arg,
                      sim::Tick delay);
    void corePullNext(proto::CoreId core);
    /** Software mode: park @p core on the shared queue until a
     *  request is granted to it. */
    void requestSoftwarePull(proto::CoreId core);

    sim::EventDomain &sim_;
    SystemParams params_;
    Derived derived_;
    app::RpcApplication &app_;
    net::Fabric &fabric_;
    noc::Mesh mesh_;
    /** Fixed on-chip delays, filled at construction: CQE delivery
     *  [backend][core], WQE post [core][backend], completion forward
     *  to the single queue's dispatcher [backend], and each core's
     *  egress backend. */
    std::vector<sim::Tick> cqeDelay_;
    std::vector<sim::Tick> wqeDelay_;
    std::vector<sim::Tick> completionFwdDelay_;
    std::vector<std::uint32_t> egressBackend_;
    mem::RecvBuffer recv_;
    mem::SendBuffer send_;
    std::vector<std::unique_ptr<ni::NiBackend>> backends_;
    std::vector<std::unique_ptr<ni::Dispatcher>> dispatchers_;
    std::unique_ptr<sync::SoftwareSharedQueue> swQueue_;
    std::vector<Core> cores_;
    sim::Rng serverRng_;
    std::uint64_t hashSalt_;
    /** Latency criticality per request class, from the workload's
     *  requestClasses() table (the one place a workload declares it). */
    std::vector<bool> classCritical_;

    std::vector<Sample> samples_;
    /** Per-core processing multipliers; empty until a slow-core fault
     *  first fires, so unfaulted runs skip the lookup. */
    std::vector<double> coreSlowdown_;

    /** Preempted-RPC continuations, keyed by receive-slot index
     *  (unique while the slot is busy). */
    struct Continuation
    {
        sim::Tick remaining = 0;
        app::HandleResult result;
    };
    std::unordered_map<std::uint32_t, Continuation> continuations_;
    std::uint64_t preemptionYields_ = 0;

    /** Connection-context (QP) cache: LRU over (src node, client)
     *  keys, active only when derived_.qpCacheCapacity > 0. Purely
     *  domain-local state, so parallel runs stay deterministic. */
    std::list<std::uint64_t> qpLru_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        qpLruPos_;
    std::uint64_t qpHits_ = 0;
    std::uint64_t qpMisses_ = 0;
    /** Earliest tick the pipelined fetch engine can start the next
     *  context fetch (misses serialize at 1/qpFetchGap). */
    sim::Tick qpFetchNextIssue_ = 0;
    CompletionHook completionHook_;
    NestedIssuer nestedIssuer_;
    bool failed_ = false;
    bool recording_ = true;
    std::uint64_t droppedPackets_ = 0;
    std::uint64_t servedTotal_ = 0;
    std::uint64_t servedCritical_ = 0;
    std::uint64_t replySlotStalls_ = 0;
    std::uint64_t replySlotEvictions_ = 0;
    sim::Tick busyAccum_ = 0;
    sim::EventPool<CqeEvent> cqePool_;
    sim::EventPool<ServiceEvent> servicePool_;
    sim::EventPool<PostEvent> postPool_;
};

} // namespace rpcvalet::node

#endif // RPCVALET_NODE_RPC_NODE_HH
