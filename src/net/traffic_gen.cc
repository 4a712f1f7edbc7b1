#include "net/traffic_gen.hh"

#include <algorithm>
#include <utility>

#include "app/wire_format.hh"
#include "sim/logging.hh"

namespace rpcvalet::net {

TrafficGenerator::TrafficGenerator(sim::EventDomain &sim,
                                   const Params &params,
                                   const proto::MessagingDomain &domain,
                                   app::RpcApplication &app, Fabric &fabric)
    : sim_(sim), params_(params), domain_(domain), app_(app),
      fabric_(fabric),
      router_(cluster::RouterRegistry::instance().make(
          params.cluster.router)),
      health_(params.cluster.numServerNodes, params.cluster.failThreshold,
              params.cluster.recoveryAfter),
      shards_(params.cluster.shards != 0 ? params.cluster.shards
                                         : params.cluster.numServerNodes,
              params.cluster.numServerNodes),
      arrivals_(sim,
                ArrivalRegistry::instance().make(params.arrival,
                                                 params.arrivalRps),
                params.seed, [this] { onArrival(); }),
      pickRng_(params.seed, /*stream=*/0x7156),
      clientRng_(params.seed, /*stream=*/0xC11E),
      routerRng_(params.seed, /*stream=*/0x7073),
      retryRng_(params.seed, /*stream=*/0x4E77),
      freeSlots_(static_cast<std::size_t>(domain.numNodes) *
                 params.cluster.numServerNodes),
      pending_(static_cast<std::size_t>(domain.numNodes) *
               params.cluster.numServerNodes),
      slots_(static_cast<std::size_t>(params.cluster.numServerNodes) *
             domain.numNodes * domain.slotsPerNode),
      perServerInFlight_(params.cluster.numServerNodes),
      connRng_(params.seed, /*stream=*/0xC04E),
      sweepEvent_(*this, "timeout-sweep")
{
    params_.cluster.validate();
    RV_ASSERT(params_.targetNode + numServers() <= domain_.numNodes,
              "server node range exceeds the messaging domain");
    RV_ASSERT(domain_.numNodes > numServers(),
              "need at least one remote client node");
    params_.retry.validate(params_.cluster.requestTimeout);
    madeByClass_.resize(std::max<std::size_t>(
        app.requestClasses().size(), 1));
    for (proto::NodeId n = 0; n < domain_.numNodes; ++n) {
        if (n >= params_.targetNode && n < params_.targetNode + numServers())
            continue;
        for (std::uint32_t srv = 0; srv < numServers(); ++srv) {
            auto &slots = freeSlots_[pairIndex(n, srv)];
            slots.reserve(domain_.slotsPerNode);
            // Highest slot last so slot 0 is handed out first.
            for (std::uint32_t s = domain_.slotsPerNode; s > 0; --s)
                slots.push_back(s - 1);
        }
    }
    if (params_.connections.active()) {
        params_.connections.validate();
        connSched_ = conn::ConnRegistry::instance().make(
            params_.connections.schedulerSpec());
        connSched_->bind(params_.connections.numClients, sim_,
                         [this](std::uint32_t client,
                                std::uint32_t limit) {
                             return connFlush(client, limit);
                         });
        connQueue_.resize(params_.connections.numClients);
        // Fixed once bound (regrouping keeps the group count), so every
        // groupOf() indexes these.
        const std::uint32_t groups = connSched_->numGroups();
        connPerGroupAdmitted_.assign(groups, 0);
        connPerGroupDeferred_.assign(groups, 0);
    }
}

void
TrafficGenerator::start()
{
    if (connSched_ != nullptr)
        connSched_->start();
    arrivals_.start();
    if (params_.cluster.requestTimeout > 0)
        sim_.schedule(sweepEvent_, params_.cluster.requestTimeout);
}

void
TrafficGenerator::halt()
{
    halted_ = true;
    if (connSched_ != nullptr)
        connSched_->halt();
    arrivals_.halt();
}

void
TrafficGenerator::onArrival()
{
    // Requests larger than maxMsgBytes are legal: they take the
    // rendezvous path (§4.2) in launchRequest.
    Request request{app_.makeRequest(clientRng_)};
    countRequestClass(request.bytes);
    if (connSched_ != nullptr) {
        // Client-population model: the arrival belongs to a uniformly
        // random logical client, whose scheduler decides whether it
        // may issue now or waits for its group's slice.
        request.conn.client = static_cast<std::uint32_t>(
            connRng_.uniformInt(0, params_.connections.numClients - 1));
        connSubmit(std::move(request));
        return;
    }
    dispatchRequest(pickClientNode(), std::move(request));
}

proto::NodeId
TrafficGenerator::connNodeFor(std::uint32_t client) const
{
    // Logical clients multiplex deterministically onto the emulated
    // client nodes (and their per-(node, server) slot pools), skipping
    // the server block — no Rng draw, so admission replays are stable.
    const std::uint32_t numClientNodes = domain_.numNodes - numServers();
    proto::NodeId n =
        static_cast<proto::NodeId>(client % numClientNodes);
    if (n >= params_.targetNode)
        n += numServers();
    return n;
}

void
TrafficGenerator::connSubmit(Request request)
{
    const std::uint32_t client = request.conn.client;
    const std::uint32_t group = connSched_->groupOf(client);
    // The generation time is the client-observed latency origin: a
    // deferred request's latency includes its admission wait.
    request.conn.genAt = sim_.now();
    request.conn.deferred = !connSched_->mayIssue(client);
    if (!request.conn.deferred) {
        ++connPerGroupAdmitted_[group];
        dispatchRequest(connNodeFor(client), std::move(request));
        return;
    }
    ++connPerGroupDeferred_[group];
    connQueue_[client].push(std::move(request));
}

std::uint32_t
TrafficGenerator::connFlush(std::uint32_t client, std::uint32_t limit)
{
    auto &queue = connQueue_[client];
    std::uint32_t released = 0;
    while (!queue.empty() && (limit == 0 || released < limit)) {
        Request next = queue.pop();
        connDeferredWait_ += sim_.now() - next.conn.genAt;
        ++connFlushed_;
        ++released;
        dispatchRequest(connNodeFor(client), std::move(next));
    }
    return released;
}

void
TrafficGenerator::connOnRetired(const Request &request, bool completed)
{
    const ConnTag &tag = request.conn;
    if (tag.client == proto::noConnClient)
        return;
    if (completed) {
        connCompletions_.push_back(
            ConnCompletion{sim_.now() - tag.genAt,
                           connSched_->groupOf(tag.client), tag.deferred});
        connSched_->onCompleted(
            tag.client, static_cast<std::uint32_t>(request.bytes.size()));
    }
    connSched_->onRetired(tag.client);
}

proto::NodeId
TrafficGenerator::pickClientNode()
{
    // Pick a uniformly random remote source node (§5: "from randomly
    // selected nodes of the cluster"), skipping the server block.
    const std::uint32_t numClients = domain_.numNodes - numServers();
    proto::NodeId src = static_cast<proto::NodeId>(
        pickRng_.uniformInt(0, numClients - 1));
    if (src >= params_.targetNode)
        src += numServers();
    return src;
}

void
TrafficGenerator::countRequestClass(
    const std::vector<std::uint8_t> &request)
{
    // Per-class generation counter, read off the wire's class byte
    // (clamped like the server side clamps stray ids).
    const std::size_t cls =
        request.size() > app::requestClassOffset
            ? std::min<std::size_t>(request[app::requestClassOffset],
                                    madeByClass_.size() - 1)
            : 0;
    ++madeByClass_[cls];
}

void
TrafficGenerator::issueNested(
    std::vector<std::vector<std::uint8_t>> requests,
    std::function<void()> done)
{
    RV_ASSERT(!requests.empty(), "empty nested-RPC group");
    RV_ASSERT(done != nullptr, "nested-RPC group needs a completion");
    std::uint64_t chain = 0;
    if (freeChains_.empty()) {
        chains_.emplace_back();
        chain = chains_.size();
    } else {
        chain = freeChains_.back();
        freeChains_.pop_back();
    }
    chains_[chain - 1] = ChainGroup{
        static_cast<std::uint32_t>(requests.size()), std::move(done)};
    nestedSent_ += requests.size();
    for (auto &bytes : requests) {
        // Each nested RPC enters the fabric like a client arrival,
        // from a random emulated node: under uniform fabric latency
        // this is latency-equivalent to issuing from the serving node
        // and reuses the per-(source, server) flow-control slots.
        const proto::NodeId src = pickClientNode();
        countRequestClass(bytes);
        dispatchRequest(src, Request{std::move(bytes), chain});
    }
}

std::uint32_t
TrafficGenerator::routeRequest(proto::NodeId src,
                               const std::vector<std::uint8_t> &request)
{
    // One server: nothing to choose, so no router call and no Rng
    // draw, whatever the router.
    if (numServers() == 1)
        return 0;
    cluster::RouteContext ctx{
        app::requestKeyOf(request),
        request.size() > app::requestClassOffset
            ? request[app::requestClassOffset]
            : std::uint8_t{0},
        src, *this, shards_, routerRng_};
    const std::uint32_t server = router_->route(ctx);
    RV_ASSERT(server < numServers(),
              "router picked an out-of-range server");
    return server;
}

void
TrafficGenerator::dispatchRequest(proto::NodeId src, Request request)
{
    const std::uint32_t server = routeRequest(src, request.bytes);
    const std::size_t pair = pairIndex(src, server);
    if (freeSlots_[pair].empty()) {
        // End-to-end flow control: all S slots toward that server are
        // in flight; the request waits for a replenish (§4.2).
        ++deferrals_;
        pending_[pair].push(std::move(request));
        return;
    }
    const std::uint32_t slot = freeSlots_[pair].back();
    freeSlots_[pair].pop_back();
    launchRequest(src, server, slot, std::move(request), kNoKey);
}

void
TrafficGenerator::resubmit(proto::NodeId src, Request request)
{
    // A retried conn request re-enters the admission gate with a fresh
    // generation time: its client's group may have rotated away since
    // the original send.
    if (request.conn.client != proto::noConnClient)
        connSubmit(std::move(request));
    else
        dispatchRequest(src, std::move(request));
}

void
TrafficGenerator::launchRequest(proto::NodeId src, std::uint32_t server,
                                std::uint32_t slot, Request request,
                                std::uint64_t hedge_of)
{
    ++requestsSent_;
    ++perServerInFlight_[server];
    // Canary accounting: a recovering server's first routed request is
    // its probe (no-op for healthy servers).
    health_.noteRouted(server);
    const proto::NodeId dst = params_.targetNode + server;
    const std::uint64_t key = reqKey(server, src, slot);
    Slot &s = slots_[key];
    RV_ASSERT(s.livePos == kIdle,
              "slot reused while its request is still outstanding");
    // A slot freed while its previous use still expected a duplicate
    // means that duplicate's reply was lost; it can never arrive, so
    // the stale marker must not misclassify this use's late replies.
    s.expectDuplicate = false;
    const std::uint32_t connClient = request.conn.client;
    if (connClient != proto::noConnClient)
        connSched_->onLaunched(connClient);
    const bool isHedge = hedge_of != kNoKey;
    s.livePos = static_cast<std::uint32_t>(live_.size());
    live_.push_back(LiveRequest{key, std::move(request), sim_.now(),
                                hedge_of, isHedge, isHedge});
    // The fabric never calls back into the generator from send(), so
    // the live record (and this reference) is stable while it sends.
    const std::vector<std::uint8_t> &bytes = live_.back().request.bytes;
    proto::Packet pkt;
    if (bytes.size() > domain_.maxMsgBytes) {
        // Rendezvous (§4.2): announce the payload with a one-block
        // descriptor; the destination NI pulls it with a one-sided
        // read from this node's registered memory (the slot table
        // plays that role here).
        ++rendezvous_;
        pkt.hdr.op = proto::OpType::Send;
        pkt.hdr.src = src;
        pkt.hdr.dst = dst;
        pkt.hdr.slot = slot;
        pkt.hdr.totalBlocks = 1;
        pkt.hdr.msgBytes = 0;
        pkt.hdr.rendezvous = true;
        pkt.hdr.rendezvousBytes = static_cast<std::uint32_t>(bytes.size());
        pkt.hdr.connClient = connClient;
        fabric_.send(pkt);
        return;
    }
    const std::uint32_t total =
        proto::blocksForBytes(static_cast<std::uint32_t>(bytes.size()));
    for (std::uint32_t b = 0; b < total; ++b) {
        proto::makePacket(pkt, proto::OpType::Send, src, dst, slot, bytes,
                          b);
        pkt.hdr.connClient = connClient;
        fabric_.send(pkt);
    }
}

void
TrafficGenerator::receivePacket(const proto::Packet &pkt)
{
    switch (pkt.hdr.op) {
      case proto::OpType::Send: {
        // A reply from a server node. Replies mirror the request slot
        // (HERD-style per-slot response matching), so the reply's
        // (src server, dst client, slot) identifies the original
        // request.
        RV_ASSERT(pkt.hdr.src >= params_.targetNode &&
                      pkt.hdr.src < params_.targetNode + numServers(),
                  "reply from a non-server node");
        const std::uint32_t server = pkt.hdr.src - params_.targetNode;
        ReplyAssembly &assembly =
            slots_[reqKey(server, pkt.hdr.dst, pkt.hdr.slot)].reply;
        if (assembly.total == 0) {
            assembly.total = pkt.hdr.totalBlocks;
            if (!replyPool_.empty()) {
                assembly.bytes = std::move(replyPool_.back());
                replyPool_.pop_back();
            }
            assembly.bytes.assign(pkt.hdr.msgBytes, 0);
        }
        proto::placeBlock(pkt, assembly.bytes);
        if (++assembly.arrived == assembly.total) {
            std::vector<std::uint8_t> reply = std::move(assembly.bytes);
            assembly = ReplyAssembly{};
            onReplyComplete(server, pkt.hdr.dst, pkt.hdr.slot, reply);
            replyPool_.push_back(std::move(reply));
        }
        break;
      }
      case proto::OpType::Replenish:
        onReplenish(pkt);
        break;
      case proto::OpType::RemoteRead: {
        // Rendezvous pull: serve the announced payload from this
        // node's memory after a DRAM access.
        RV_ASSERT(pkt.hdr.src >= params_.targetNode &&
                      pkt.hdr.src < params_.targetNode + numServers(),
                  "one-sided read from a non-server node");
        const std::uint32_t server = pkt.hdr.src - params_.targetNode;
        const LiveRequest *live =
            findLive(reqKey(server, pkt.hdr.dst, pkt.hdr.slot));
        if (live == nullptr) {
            RV_ASSERT(params_.cluster.requestTimeout > 0,
                      "one-sided read for unknown payload");
            // The request timed out and was rerouted; the late pull
            // reads nothing.
            ++staleReplies_;
            break;
        }
        const proto::NodeId owner = pkt.hdr.dst;
        const proto::NodeId reader = pkt.hdr.src;
        const std::uint32_t slot = pkt.hdr.slot;
        const std::vector<std::uint8_t> payload = live->request.bytes;
        const std::uint32_t connClient = live->request.conn.client;
        sim_.schedule(
            sim::nanoseconds(60.0),
            [this, owner, reader, slot, payload, connClient] {
                const std::uint32_t total = proto::blocksForBytes(
                    static_cast<std::uint32_t>(payload.size()));
                proto::Packet block;
                for (std::uint32_t b = 0; b < total; ++b) {
                    proto::makePacket(block, proto::OpType::ReadResponse,
                                      owner, reader, slot, payload, b);
                    block.hdr.connClient = connClient;
                    fabric_.send(block);
                }
            });
        break;
      }
      default:
        sim::panic("traffic generator received unexpected op");
    }
}

void
TrafficGenerator::onReplyComplete(std::uint32_t server,
                                  proto::NodeId dst, std::uint32_t slot,
                                  const std::vector<std::uint8_t> &reply)
{
    const std::uint64_t key = reqKey(server, dst, slot);
    Slot &s = slots_[key];
    const LiveRequest *live = findLive(key);
    if (live == nullptr) {
        if (s.expectDuplicate) {
            // The losing half of a hedge race: its winner already
            // delivered this request's answer. Expected, accounted
            // apart from genuinely stale (timed-out) replies.
            s.expectDuplicate = false;
            ++duplicateReplies_;
        } else {
            RV_ASSERT(params_.cluster.requestTimeout > 0,
                      "reply for unknown request");
            // The request already timed out and was rerouted
            // elsewhere: drop the late reply's payload, but still
            // return the reply's send-slot credit below — the reply
            // did occupy the server's mirrored send slot, and
            // withholding the replenish would leak it, wedging every
            // later reply on that slot into an infinite busy-retry
            // (seen with chained workloads, whose composed root
            // latency can legitimately cross the request timeout on a
            // healthy node).
            ++staleReplies_;
        }
    } else {
        if (!app_.verifyReply(live->request.bytes, reply))
            ++verifyFailures_;
        ++repliesReceived_;
        health_.reportSuccess(server);
        if (const std::uint64_t loser = live->sibling; loser != kNoKey) {
            // First reply wins: retire the losing half now so its
            // late reply cannot double-complete the request. Its slot
            // credit still returns through the duplicate-reply path
            // above (the loser's reply carries the replenish).
            if (live->isHedge)
                ++hedgesWon_;
            slots_[loser].expectDuplicate = true;
            retire(loser, /*completed=*/false);
        }
        const std::uint64_t chain = retire(key, /*completed=*/true).chain;
        // Last among the accounting: the chain-group completion may
        // re-enter this generator (a resumed parent's own reply
        // path), so everything above must already be settled. The
        // replenish below is scheduled either way, so ordering with
        // it is immaterial.
        if (chain != 0)
            onChainMemberDone(chain);
    }
    // Return the reply's send-slot credit to the serving node after
    // the client-side turnaround (stale replies included, see above).
    const proto::NodeId replyDst = params_.targetNode + server;
    sim_.schedule(params_.clientTurnaround,
                  [this, dst, replyDst, slot] {
                      proto::Packet pkt;
                      pkt.hdr.op = proto::OpType::Replenish;
                      pkt.hdr.src = dst;
                      pkt.hdr.dst = replyDst;
                      pkt.hdr.slot = slot;
                      pkt.hdr.totalBlocks = 1;
                      pkt.hdr.msgBytes = 0;
                      fabric_.send(std::move(pkt));
                  });
}

TrafficGenerator::Request
TrafficGenerator::retire(std::uint64_t key, bool completed)
{
    Slot &s = slots_[key];
    RV_ASSERT(s.livePos != kIdle, "retiring a request that is not in flight");
    const std::uint32_t pos = s.livePos;
    Request request = std::move(live_[pos].request);
    // The survivor of a hedge pair resolves alone from here.
    if (const std::uint64_t sibling = live_[pos].sibling; sibling != kNoKey)
        live_[slots_[sibling].livePos].sibling = kNoKey;
    if (pos + 1 != live_.size()) {
        live_[pos] = std::move(live_.back());
        slots_[live_[pos].key].livePos = pos;
    }
    live_.pop_back();
    s.livePos = kIdle;
    // A partially assembled reply for the request must not pollute
    // the slot's next use; its buffer goes back to the pool.
    if (s.reply.total != 0)
        replyPool_.push_back(std::move(s.reply.bytes));
    s.reply = ReplyAssembly{};
    // Connection accounting + the drain-before-switch signal. Either
    // can admit deferred requests, which re-enter this generator and
    // are routed on the per-server counts: an abandoned request is
    // reported while it still counts toward its server, a completed
    // one once everything below is settled.
    if (!completed)
        connOnRetired(request, /*completed=*/false);
    const KeyParts k = keyParts(key);
    RV_ASSERT(perServerInFlight_[k.server] > 0,
              "per-server in-flight underflow");
    --perServerInFlight_[k.server];
    // The slot is reclaimed here only if its replenish already came
    // back (a parked credit proves the server's recv slot is free);
    // otherwise the replenish returns it, and a dead server's slots
    // stay consumed until it recovers.
    if (s.heldCredit) {
        s.heldCredit = false;
        recycleSlot(k.client, k.server, k.slot);
    }
    if (completed)
        connOnRetired(request, /*completed=*/true);
    return request;
}

void
TrafficGenerator::onChainMemberDone(std::uint64_t chain)
{
    RV_ASSERT(chain - 1 < chains_.size(), "reply for unknown chain group");
    ChainGroup &group = chains_[chain - 1];
    RV_ASSERT(group.remaining > 0, "chain-group underflow");
    if (--group.remaining > 0)
        return;
    std::function<void()> done = std::move(group.done);
    group.done = nullptr;
    freeChains_.push_back(chain);
    ++chainsCompleted_;
    done();
}

void
TrafficGenerator::onReplenish(const proto::Packet &pkt)
{
    // A server finished processing a request: the source's send slot
    // toward that server is free again (§4.2 step C).
    RV_ASSERT(pkt.hdr.src >= params_.targetNode &&
                  pkt.hdr.src < params_.targetNode + numServers(),
              "replenish from a non-server node");
    const std::uint32_t server = pkt.hdr.src - params_.targetNode;
    const proto::NodeId src = pkt.hdr.dst;
    const std::uint32_t slot = pkt.hdr.slot;
    RV_ASSERT(src < domain_.numNodes, "replenish for unknown node");
    Slot &s = slots_[reqKey(server, src, slot)];
    if (s.livePos != kIdle) {
        // The request is still outstanding on this very slot: its
        // reply was lost (per-flow FIFO delivers the reply before the
        // replenish otherwise). Reusing the slot now would alias a new
        // request under the same reply key — park the credit until
        // the outstanding request resolves.
        s.heldCredit = true;
        return;
    }
    recycleSlot(src, server, slot);
}

void
TrafficGenerator::recycleSlot(proto::NodeId client, std::uint32_t server,
                              std::uint32_t slot)
{
    const std::size_t pair = pairIndex(client, server);
    if (!pending_[pair].empty()) {
        Request next = pending_[pair].pop();
        launchRequest(client, server, slot, std::move(next), kNoKey);
    } else {
        freeSlots_[pair].push_back(slot);
    }
}

void
TrafficGenerator::sweepTimeouts()
{
    if (halted_)
        return;

    const fault::RetryPolicy &retry = params_.retry;
    const sim::Tick timeout = params_.cluster.requestTimeout;

    // Collect first, then act: hedging and rerouting launch requests,
    // which must not be visited by this sweep. Ascending key order
    // keeps the sweep independent of the live list's order. Hedge
    // candidates are old enough to warrant a duplicate send but not
    // yet expired; they are hedged before any expiry is handled.
    std::vector<std::uint64_t> toHedge;
    std::vector<std::uint64_t> expired;
    for (const LiveRequest &live : live_) {
        const sim::Tick age = sim_.now() - live.sentAt;
        if (age >= timeout)
            expired.push_back(live.key);
        else if (retry.hedgeAfter > 0 && age >= retry.hedgeAfter &&
                 !live.hedged)
            toHedge.push_back(live.key);
    }
    std::sort(toHedge.begin(), toHedge.end());
    for (const std::uint64_t key : toHedge)
        hedgeRequest(key);
    std::sort(expired.begin(), expired.end());

    for (const std::uint64_t key : expired) {
        const LiveRequest *live = findLive(key);
        RV_ASSERT(live != nullptr, "expired request vanished mid-sweep");
        const bool hadSibling = live->sibling != kNoKey;
        const KeyParts k = keyParts(key);
        Request request = retire(key, /*completed=*/false);
        ++timeouts_;
        if (health_.reportFailure(k.server, sim_.now())) {
            // Transition to down: everything queued toward this
            // server would wait forever — reroute it now.
            drainPending(k.server);
        }
        if (hadSibling) {
            // Half of a hedge pair expired; the surviving half still
            // covers the request, so no re-dispatch.
            continue;
        }
        if (retry.maxAttempts > 0 && request.attempt >= retry.maxAttempts) {
            // Attempt budget exhausted: give up for real. A chained
            // member still counts toward its group so the parent's
            // deferred reply is not wedged forever.
            ++retryDrops_;
            if (request.chain != 0)
                onChainMemberDone(request.chain);
            continue;
        }
        // Reroutes keep their chain group: a chain member survives
        // timeouts without double-counting toward the group.
        ++retries_;
        ++reroutes_;
        sim::Tick backoff = 0;
        if (retry.baseBackoff > 0) {
            double delay = static_cast<double>(retry.baseBackoff);
            for (std::uint32_t a = 1; a < request.attempt; ++a)
                delay *= retry.multiplier;
            if (retry.jitter > 0.0) {
                delay *= 1.0 + retry.jitter *
                                   (2.0 * retryRng_.uniform() - 1.0);
            }
            backoff = static_cast<sim::Tick>(delay);
        }
        ++request.attempt;
        if (backoff == 0) {
            // Immediate re-dispatch, no extra event.
            resubmit(k.client, std::move(request));
            continue;
        }
        sim_.schedule(backoff, [this, client = k.client,
                                request = std::move(request)]() mutable {
            if (!halted_)
                resubmit(client, std::move(request));
        });
    }

    const cluster::ClusterConfig &cc = params_.cluster;
    sim_.schedule(sweepEvent_,
                  cc.sweepInterval > 0
                      ? cc.sweepInterval
                      : std::max<sim::Tick>(1, cc.requestTimeout / 4));
}

void
TrafficGenerator::hedgeRequest(std::uint64_t primary_key)
{
    LiveRequest *primary = findLive(primary_key);
    RV_ASSERT(primary != nullptr, "hedge candidate vanished mid-sweep");
    const proto::NodeId client = keyParts(primary_key).client;
    // Route the duplicate independently — under load-aware routing it
    // lands on a less-loaded (often different) server than the slow
    // primary.
    const std::uint32_t server =
        routeRequest(client, primary->request.bytes);
    const std::size_t pair = pairIndex(client, server);
    if (freeSlots_[pair].empty()) {
        // No free slot toward the hedge's target: skip rather than
        // queue (a queued hedge would only add load where it hurts);
        // the next sweep retries while the primary lives.
        return;
    }
    const std::uint32_t slot = freeSlots_[pair].back();
    freeSlots_[pair].pop_back();
    primary->hedged = true;
    primary->sibling = reqKey(server, client, slot);
    // The duplicate shares the primary's chain group (exactly one of
    // the pair completes it; the loser retires as a duplicate) and its
    // connection identity (its admission was already granted; hedging
    // does not re-enter the gate). The launch may move live_, so
    // primary is not touched after it.
    launchRequest(client, server, slot, primary->request, primary_key);
    ++hedgesSent_;
}

void
TrafficGenerator::drainPending(std::uint32_t server)
{
    std::vector<std::pair<proto::NodeId, Request>> queued;
    for (proto::NodeId n = 0; n < domain_.numNodes; ++n) {
        auto &q = pending_[pairIndex(n, server)];
        while (!q.empty())
            queued.emplace_back(n, q.pop());
    }
    for (auto &[client, request] : queued) {
        ++reroutes_;
        dispatchRequest(client, std::move(request));
    }
}

} // namespace rpcvalet::net
