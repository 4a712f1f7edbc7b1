/**
 * @file
 * Cluster traffic generator (§5 "System organization").
 *
 * The modeled servers are nodes of a 200-node cluster; the remaining
 * nodes are emulated by this generator. It creates synthetic send
 * requests at an aggregate rate shaped by a pluggable arrival process
 * (default: the paper's Poisson; see net/arrival.hh) from uniformly
 * random source nodes, obeys per-(source, server) send-slot flow
 * control (a source with all S slots toward a server in flight defers
 * until a replenish returns), consumes the servers' replies, verifies
 * them against the application, and returns reply replenishes after a
 * client-side turnaround delay.
 *
 * The generator is also the cluster's client-side balancer. It builds
 * the router, shard map and health tracker its cluster::ClusterConfig
 * describes; each request is addressed by the cluster Router
 * (src/cluster/router.hh), which observes per-server health and
 * outstanding load through the ClusterView interface this class
 * implements. An optional request timeout sweeps outstanding requests,
 * feeds consecutive timeouts into the HealthTracker, and reroutes
 * timed-out (and queued) requests to surviving servers — the failover
 * path. A single server is never routed (no router Rng draw), and
 * without a timeout no sweep event is ever scheduled.
 *
 * The generator also plays the fabric side of nested RPC chains
 * (issueNested): a server whose handler fans out to other tiers hands
 * its nested requests here, where they ride the normal client
 * machinery as a chain group whose completion resumes the parent's
 * deferred reply. Workloads that never nest take none of these paths.
 *
 * In-flight bookkeeping mirrors the messaging domain's own addressing
 * (§4.2): a (server, client, slot) triple names exactly one send slot,
 * so per-slot state lives in one dense slot table indexed by that id:
 * the reply being reassembled, a parked slot credit, an
 * expected-duplicate mark, and where the slot's live request sits.
 * The live requests themselves (request, send time, hedge links) sit
 * packed in a list with swap-remove, so the timeout sweep visits only
 * in-flight requests and the table stays small. Every launched
 * request leaves the in-flight set through one retire(), so launches
 * = replies + timeouts + hedge-loser retirements + in flight at any
 * instant.
 */

#ifndef RPCVALET_NET_TRAFFIC_GEN_HH
#define RPCVALET_NET_TRAFFIC_GEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "app/rpc_application.hh"
#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "cluster/topology.hh"
#include "conn/conn.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "net/fabric.hh"
#include "proto/messaging.hh"
#include "proto/qp.hh"
#include "sim/domain.hh"

namespace rpcvalet::net {

/**
 * Connection identity a request carries through its in-flight
 * life: the logical client it belongs to, when the client
 * generated it (client-observed latency origin), and whether
 * admission deferred it. Default-constructed (client ==
 * proto::noConnClient) on every legacy-path request.
 */
struct ConnTag
{
    std::uint32_t client = proto::noConnClient;
    sim::Tick genAt = 0;
    bool deferred = false;
};

/**
 * Emulates the remote client nodes of the messaging domain.
 *
 * A Request is the one record of a client request, whether it waits
 * for admission (per-client queue), for a send slot (per-(client,
 * server) queue), or is in flight (the live list). A timed-out
 * request is sent again through the same admission or dispatch step
 * that first issued it, at once or after the retry backoff.
 */
class TrafficGenerator final : private cluster::ClusterView
{
  public:
    struct Params
    {
        /** Aggregate request arrival rate, requests per second. */
        double arrivalRps = 1e6;
        /** Interarrival process shaping that rate (net/arrival.hh). */
        ArrivalSpec arrival{};
        /** First server node (requests' destination base). Servers
         *  occupy node ids [targetNode, targetNode +
         *  cluster.numServerNodes). */
        proto::NodeId targetNode = 0;
        /** The servers behind the generator: count, router, shards,
         *  health threshold and recovery, request timeout (0 disables
         *  the timeout sweep) and sweep interval. The default is one
         *  server behind the "direct" router. */
        cluster::ClusterConfig cluster{};
        /** Client-side turnaround before replenishing a reply slot. */
        sim::Tick clientTurnaround = sim::nanoseconds(100.0);
        /** Client recovery policy for timed-out requests (backoff,
         *  attempt budget, hedging). The defaults reproduce the legacy
         *  unlimited-immediate-redispatch behavior bit-identically. */
        fault::RetryPolicy retry{};
        /** Client-population model (src/conn/): logical clients and
         *  their connection scheduler. numClients == 0 (the default)
         *  keeps the legacy anonymous-arrival path bit-identically. */
        conn::ConnConfig connections{};
        /** Experiment seed. */
        std::uint64_t seed = 1;
    };

    /** Resolves params.cluster.router through the
     *  cluster::RouterRegistry (fatal on an unknown name). */
    TrafficGenerator(sim::EventDomain &sim, const Params &params,
                     const proto::MessagingDomain &domain,
                     app::RpcApplication &app, Fabric &fabric);

    /** Begin generating load. */
    void start();

    /** Stop generating new requests (in-flight ones complete). */
    void halt();

    /** Fabric sink for packets addressed to any emulated node. */
    void receivePacket(const proto::Packet &pkt);

    /**
     * Issue a server's nested RPCs (HandleResult.nested) as a chain
     * group: each request is routed and launched like a client arrival
     * (from a random emulated source node — latency-equivalent to
     * issuing from the serving node, since fabric latency is uniform),
     * and @p done fires once when every request in the group has
     * completed. Rerouted requests keep their group, so a chain
     * survives timeouts and node failover. The experiment layer wires
     * this as every RpcNode's nested issuer.
     */
    void issueNested(std::vector<std::vector<std::uint8_t>> requests,
                     std::function<void()> done);

    /** Nested RPCs issued on behalf of servers. */
    std::uint64_t nestedSent() const { return nestedSent_; }

    /** Chain groups whose every nested RPC completed. */
    std::uint64_t chainsCompleted() const { return chainsCompleted_; }

    /** Requests injected into the fabric. */
    std::uint64_t requestsSent() const { return requestsSent_; }

    /**
     * Requests generated per request class (indexed like the
     * application's requestClasses(); includes requests still deferred
     * by flow control). The class id is read off the wire bytes, so
     * this observes exactly what the server will account.
     */
    const std::vector<std::uint64_t> &
    requestsMadeByClass() const
    {
        return madeByClass_;
    }

    /** Replies fully received. */
    std::uint64_t repliesReceived() const { return repliesReceived_; }

    /** Replies that failed application-level verification. */
    std::uint64_t verificationFailures() const { return verifyFailures_; }

    /** Arrivals deferred because the source had no free slot. */
    std::uint64_t flowControlDeferrals() const { return deferrals_; }

    /** Requests that took the rendezvous (large-message) path. */
    std::uint64_t rendezvousRequests() const { return rendezvous_; }

    /** Requests currently in flight (slot held). */
    std::uint64_t inFlight() const { return live_.size(); }

    /** Requests that exceeded the timeout and were given up on. */
    std::uint64_t requestTimeouts() const { return timeouts_; }

    /** The cluster router's name (e.g. "direct"). */
    std::string routerName() const { return router_->name(); }

    /** Servers the health tracker holds down now. */
    std::uint32_t nodesDown() const { return health_.nodesDown(sim_.now()); }

    /** Requests re-dispatched after a timeout or a node mark-down. */
    std::uint64_t failoverReroutes() const { return reroutes_; }

    /** Replies/reads that arrived after their request timed out. */
    std::uint64_t staleReplies() const { return staleReplies_; }

    /** Timed-out requests re-dispatched under the retry policy (or
     *  the legacy unlimited-retry default). */
    std::uint64_t retries() const { return retries_; }

    /** Requests abandoned after exhausting the attempt budget. */
    std::uint64_t retryDrops() const { return retryDrops_; }

    /** Hedged duplicate sends issued. */
    std::uint64_t hedgesSent() const { return hedgesSent_; }

    /** Races a hedge won (its reply beat the primary's). */
    std::uint64_t hedgesWon() const { return hedgesWon_; }

    /** Replies from the losing side of a hedge race (accounted
     *  separately from staleReplies: they are expected). */
    std::uint64_t duplicateReplies() const { return duplicateReplies_; }

    // ----- connection management (src/conn/; inert when the config
    //       has no client population) -----

    /** The run's connection scheduler (null without a population). */
    const conn::ConnScheduler *
    connScheduler() const
    {
        return connSched_.get();
    }

    /** Deferred requests since released by the scheduler. */
    std::uint64_t connFlushed() const { return connFlushed_; }

    /** Aggregate ticks released requests spent waiting for admission. */
    sim::Tick connDeferredWaitTicks() const { return connDeferredWait_; }

    /** One completed conn-tagged request, as its client saw it. */
    struct ConnCompletion
    {
        /** Generation to completion; a deferred request's latency
         *  includes its admission wait. */
        sim::Tick latency = 0;
        /** The client's group position when the request completed. */
        std::uint32_t group = 0;
        /** Whether the request waited for its group's slice. */
        bool deferred = false;
    };

    /** Every completed conn-tagged request of the run (warmup
     *  included), in completion order. */
    const std::vector<ConnCompletion> &connCompletions() const
    {
        return connCompletions_;
    }

    /** Per-group-position counts of requests the scheduler admitted
     *  without deferral (index = group). */
    const std::vector<std::uint64_t> &connPerGroupAdmitted() const
    {
        return connPerGroupAdmitted_;
    }

    /** Per-group-position counts of requests deferred because their
     *  client could not issue (index = group). */
    const std::vector<std::uint64_t> &connPerGroupDeferred() const
    {
        return connPerGroupDeferred_;
    }

  private:
    // cluster::ClusterView — what routers may observe.
    std::uint32_t numServers() const override
    {
        return params_.cluster.numServerNodes;
    }
    bool isUp(std::uint32_t server) const override
    {
        return health_.isUp(server, sim_.now());
    }
    std::uint64_t outstanding(std::uint32_t server) const override
    {
        return perServerInFlight_[server];
    }

    /** Flat (client, server) pair index for the slot queues. */
    std::size_t
    pairIndex(proto::NodeId client, std::uint32_t server) const
    {
        return static_cast<std::size_t>(client) * numServers() + server;
    }

    /** Flat (server, client, slot) key: the slot table's index. */
    std::uint64_t
    reqKey(std::uint32_t server, proto::NodeId client,
           std::uint32_t slot) const
    {
        return (static_cast<std::uint64_t>(server) * domain_.numNodes +
                client) *
                   domain_.slotsPerNode +
               slot;
    }

    /** reqKey's inverse. */
    struct KeyParts
    {
        std::uint32_t server;
        proto::NodeId client;
        std::uint32_t slot;
    };
    KeyParts
    keyParts(std::uint64_t key) const
    {
        const std::uint64_t pair = key / domain_.slotsPerNode;
        return {static_cast<std::uint32_t>(pair / domain_.numNodes),
                static_cast<proto::NodeId>(pair % domain_.numNodes),
                static_cast<std::uint32_t>(key % domain_.slotsPerNode)};
    }

    /** A client request: wire bytes (kept for verification and
     *  rendezvous pulls), its chain group (0 = ordinary request; the id
     *  survives reroutes, so a group's completion count stays exact
     *  across failover), its 1-based send attempt, and its connection
     *  identity (legacy default on anonymous paths). */
    struct Request
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t chain = 0;
        std::uint32_t attempt = 1;
        ConnTag conn{};
    };

    void onArrival();
    /** Uniformly random remote source node (skips the server block). */
    proto::NodeId pickClientNode();
    /** Deterministic emulated source node of a logical client. */
    proto::NodeId connNodeFor(std::uint32_t client) const;
    /** Admission gate for @p request's client (request.conn.client):
     *  dispatch now if the scheduler allows, else queue on the client
     *  until the scheduler releases it. Stamps the generation time. */
    void connSubmit(Request request);
    /** The scheduler's AdmitFn: release up to @p limit queued
     *  requests of @p client (0 = all); returns the count released. */
    std::uint32_t connFlush(std::uint32_t client, std::uint32_t limit);
    /** Scheduler callbacks for a conn-tagged request leaving the
     *  in-flight set: completion accounting if it @p completed, then
     *  the exactly-once drain signal (no-op on legacy tags). */
    void connOnRetired(const Request &request, bool completed);
    /** Bump the per-class generation counter off the wire bytes. */
    void countRequestClass(const std::vector<std::uint8_t> &request);
    /** Route @p request from @p src and launch it (or queue it on the
     *  chosen server's slot pool). */
    void dispatchRequest(proto::NodeId src, Request request);
    /** Send a timed-out request again the way it first entered:
     *  through admission if conn-tagged, else dispatch from @p src. */
    void resubmit(proto::NodeId src, Request request);
    std::uint32_t routeRequest(proto::NodeId src,
                               const std::vector<std::uint8_t> &request);
    /** Put @p request in flight on @p slot toward @p server. A hedged
     *  duplicate names its primary's key in @p hedge_of (kNoKey for
     *  every other launch). */
    void launchRequest(proto::NodeId src, std::uint32_t server,
                       std::uint32_t slot, Request request,
                       std::uint64_t hedge_of);
    /** Send a hedged duplicate of the in-flight request at
     *  @p primary_key (no-op if no slot is free at the hedge's
     *  routed target — the next sweep retries). */
    void hedgeRequest(std::uint64_t primary_key);
    void onReplyComplete(std::uint32_t server, proto::NodeId dst,
                         std::uint32_t slot,
                         const std::vector<std::uint8_t> &reply);
    /**
     * Take the in-flight request at @p key out of the in-flight set —
     * the one exit for replies, timeouts and hedge losers: unlink its
     * hedge sibling, drop any partial reply, settle the per-server
     * count, free a credit parked on the slot, and signal the
     * connection scheduler. A request that @p completed is reported
     * (with completion accounting) last; an abandoned one first, while
     * it still counts toward its server's load. Returns the request.
     */
    Request retire(std::uint64_t key, bool completed);
    /** A chain member finished; fire the group's done at zero. */
    void onChainMemberDone(std::uint64_t chain);
    void onReplenish(const proto::Packet &pkt);
    /** Hand a freed request slot to the pair's queue (or the free
     *  list): the common tail of onReplenish and held-credit release. */
    void recycleSlot(proto::NodeId client, std::uint32_t server,
                     std::uint32_t slot);
    /** Periodic timeout scan (scheduled only when requestTimeout > 0). */
    void sweepTimeouts();
    /** Reroute everything queued toward @p server (just marked down). */
    void drainPending(std::uint32_t server);

    sim::EventDomain &sim_;
    Params params_;
    proto::MessagingDomain domain_;
    app::RpcApplication &app_;
    Fabric &fabric_;
    cluster::RouterPtr router_;
    cluster::HealthTracker health_;
    cluster::ShardMap shards_;
    ArrivalDriver arrivals_;
    sim::Rng pickRng_;
    sim::Rng clientRng_;
    /** Router-private stream: routing draws never perturb the client
     *  or arrival streams. */
    sim::Rng routerRng_;
    /** Backoff-jitter stream; drawn only when retry.jitter > 0, so
     *  jitterless runs stay bit-identical. */
    sim::Rng retryRng_;

    /** Free request-slot numbers per (client, server) pair. */
    std::vector<std::vector<std::uint32_t>> freeSlots_;
    /** Requests waiting for a slot, per (client, server) pair. */
    std::vector<proto::Fifo<Request>> pending_;

    /** Sibling sentinel: this request is not half of a hedge pair. */
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

    /** Reply blocks received so far on one slot. */
    struct ReplyAssembly
    {
        std::uint32_t arrived = 0;
        std::uint32_t total = 0;
        /** Taken from replyPool_ at the first block, returned to it
         *  once the reply completes or is dropped. */
        std::vector<std::uint8_t> bytes;
    };
    /** Reassembly buffers not in use: a message pool shared by every
     *  slot (ScaleRPC-style), so it holds as many buffers as replies
     *  ever assembled at once rather than one per slot, and a reply
     *  reuses a recycled buffer's capacity instead of allocating. */
    std::vector<std::vector<std::uint8_t>> replyPool_;

    /** A request in flight, on the slot its key names. */
    struct LiveRequest
    {
        std::uint64_t key;
        Request request;
        sim::Tick sentAt;
        /** Key of the other half of the hedge pair (kNoKey = none);
         *  cleared on the survivor when either side retires. */
        std::uint64_t sibling;
        /** This request already has (or had) a hedge — never hedge
         *  the same request twice. */
        bool hedged;
        /** This request IS the hedged duplicate. */
        bool isHedge;
    };

    /** livePos sentinel: no request is in flight on the slot. */
    static constexpr std::uint32_t kIdle = ~std::uint32_t{0};

    /** What the client tracks about one (server, client, slot), kept
     *  small: the table has an entry for every slot, live or not. */
    struct Slot
    {
        /** The reply being reassembled (stale ones included). */
        ReplyAssembly reply;
        /** Index of the slot's request in live_ (kIdle = none). */
        std::uint32_t livePos = kIdle;
        /** The slot's credit came back (replenish) while its request
         *  was still in flight — possible only when the reply was lost
         *  (the fabric's per-flow FIFO otherwise delivers the reply
         *  first). Reusing the slot then would alias two requests under
         *  one reply key, so the credit is parked until the request
         *  retires (reply, timeout, or hedge retirement). */
        bool heldCredit = false;
        /** This slot's last request lost a hedge race and its reply is
         *  still due: when it arrives it is a duplicate (expected), not
         *  a stale (lost) reply. */
        bool expectDuplicate = false;
    };
    /** The slot table, indexed by reqKey(server, client, slot). */
    std::vector<Slot> slots_;
    /** The in-flight requests, in no particular order (swap-remove):
     *  the timeout sweep's working set. */
    std::vector<LiveRequest> live_;

    /** The live request on the slot at @p key, or null. */
    LiveRequest *
    findLive(std::uint64_t key)
    {
        const std::uint32_t pos = slots_[key].livePos;
        return pos == kIdle ? nullptr : &live_[pos];
    }

    /** In-flight requests per server (the router's load signal). */
    std::vector<std::uint64_t> perServerInFlight_;

    /** An open chain group: members still in flight + completion. */
    struct ChainGroup
    {
        std::uint32_t remaining = 0;
        std::function<void()> done;
    };
    /** Chain groups indexed by chain id - 1 (id 0 = no chain); a
     *  completed group's id goes to freeChains_ for reuse. */
    std::vector<ChainGroup> chains_;
    std::vector<std::uint64_t> freeChains_;

    std::uint64_t requestsSent_ = 0;
    std::vector<std::uint64_t> madeByClass_;
    std::uint64_t repliesReceived_ = 0;
    std::uint64_t verifyFailures_ = 0;
    std::uint64_t deferrals_ = 0;
    std::uint64_t rendezvous_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t reroutes_ = 0;
    std::uint64_t staleReplies_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t retryDrops_ = 0;
    std::uint64_t hedgesSent_ = 0;
    std::uint64_t hedgesWon_ = 0;
    std::uint64_t duplicateReplies_ = 0;
    std::uint64_t nestedSent_ = 0;
    std::uint64_t chainsCompleted_ = 0;
    bool halted_ = false;

    // ----- connection management (all empty/zero when inactive) -----

    /** The run's connection scheduler (null = no client population). */
    conn::ConnSchedulerPtr connSched_;
    /** Client-identity stream; drawn only when the population model
     *  is active, so legacy runs stay bit-identical. */
    sim::Rng connRng_;
    /** Requests waiting for their client's admission, per logical
     *  client. */
    std::vector<proto::Fifo<Request>> connQueue_;
    std::uint64_t connFlushed_ = 0;
    sim::Tick connDeferredWait_ = 0;
    std::vector<ConnCompletion> connCompletions_;
    std::vector<std::uint64_t> connPerGroupAdmitted_;
    std::vector<std::uint64_t> connPerGroupDeferred_;

    sim::MemberEvent<TrafficGenerator, &TrafficGenerator::sweepTimeouts>
        sweepEvent_;
};

} // namespace rpcvalet::net

#endif // RPCVALET_NET_TRAFFIC_GEN_HH
