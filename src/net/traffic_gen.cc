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
    arrivals_.setBatchWindow(params_.arrivalBatchWindow);
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
        const std::uint32_t groups = connSched_->numGroups();
        connPerGroupAdmitted_.assign(groups, 0);
        connPerGroupDeferred_.assign(groups, 0);
        connPerGroupLatency_.resize(groups);
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
    if (connSched_ != nullptr) {
        // Client-population model: the arrival belongs to a uniformly
        // random logical client, whose scheduler decides whether it
        // may issue now or waits for its group's slice.
        const std::uint32_t client = static_cast<std::uint32_t>(
            connRng_.uniformInt(0, params_.connections.numClients - 1));
        std::vector<std::uint8_t> request = app_.makeRequest(clientRng_);
        countRequestClass(request);
        connSubmit(client, std::move(request), /*chain=*/0,
                   /*attempt=*/1);
        return;
    }

    const proto::NodeId src = pickClientNode();

    // Requests larger than maxMsgBytes are legal: they take the
    // rendezvous path (§4.2) in launchRequest.
    std::vector<std::uint8_t> request = app_.makeRequest(clientRng_);
    countRequestClass(request);

    dispatchRequest(src, std::move(request), /*chain=*/0);
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
TrafficGenerator::connSubmit(std::uint32_t client,
                             std::vector<std::uint8_t> request,
                             std::uint64_t chain, std::uint32_t attempt)
{
    const std::uint32_t group = connSched_->groupOf(client);
    if (connSched_->mayIssue(client)) {
        ++connAdmittedImmediate_;
        if (group < connPerGroupAdmitted_.size())
            ++connPerGroupAdmitted_[group];
        dispatchRequest(connNodeFor(client), std::move(request), chain,
                        attempt,
                        ConnTag{client, sim_.now(), /*deferred=*/false});
        return;
    }
    ++connDeferredTotal_;
    if (group < connPerGroupDeferred_.size())
        ++connPerGroupDeferred_[group];
    connQueue_[client].push_back(
        ConnDeferred{std::move(request), chain, attempt, sim_.now()});
}

std::uint32_t
TrafficGenerator::connFlush(std::uint32_t client, std::uint32_t limit)
{
    auto &queue = connQueue_[client];
    std::uint32_t released = 0;
    while (!queue.empty() && (limit == 0 || released < limit)) {
        ConnDeferred next = std::move(queue.front());
        queue.pop_front();
        connDeferredWait_ += sim_.now() - next.genAt;
        ++connFlushed_;
        ++released;
        // The tag keeps the generation time: the client-observed
        // latency of a deferred request includes its admission wait.
        dispatchRequest(connNodeFor(client), std::move(next.bytes),
                        next.chain, next.attempt,
                        ConnTag{client, next.genAt, /*deferred=*/true});
    }
    return released;
}

void
TrafficGenerator::connOnCompleted(const ConnTag &tag,
                                  std::uint32_t req_bytes)
{
    if (connSched_ == nullptr || tag.client == proto::noConnClient)
        return;
    const sim::Tick latency = sim_.now() - tag.genAt;
    (tag.deferred ? connInactiveLatency_ : connActiveLatency_)
        .record(latency);
    const std::uint32_t group = connSched_->groupOf(tag.client);
    if (group < connPerGroupLatency_.size())
        connPerGroupLatency_[group].record(latency);
    connSched_->onCompleted(tag.client, req_bytes);
}

void
TrafficGenerator::connOnRetired(const ConnTag &tag)
{
    if (connSched_ == nullptr || tag.client == proto::noConnClient)
        return;
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
    const std::uint64_t chain = nextChainId_++;
    chains_.emplace(chain,
                    ChainGroup{
                        static_cast<std::uint32_t>(requests.size()),
                        std::move(done)});
    nestedSent_ += requests.size();
    for (auto &request : requests) {
        // Each nested RPC enters the fabric like a client arrival,
        // from a random emulated node: under uniform fabric latency
        // this is latency-equivalent to issuing from the serving node
        // and reuses the per-(source, server) flow-control slots.
        const proto::NodeId src = pickClientNode();
        countRequestClass(request);
        dispatchRequest(src, std::move(request), chain);
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
TrafficGenerator::dispatchRequest(proto::NodeId src,
                                  std::vector<std::uint8_t> request,
                                  std::uint64_t chain,
                                  std::uint32_t attempt, ConnTag conn)
{
    const std::uint32_t server = routeRequest(src, request);
    const std::size_t pair = pairIndex(src, server);
    if (freeSlots_[pair].empty()) {
        // End-to-end flow control: all S slots toward that server are
        // in flight; the request waits for a replenish (§4.2).
        ++deferrals_;
        pending_[pair].push_back(
            PendingRequest{std::move(request), chain, attempt, conn});
        return;
    }
    const std::uint32_t slot = freeSlots_[pair].back();
    freeSlots_[pair].pop_back();
    launchRequest(src, server, slot, std::move(request), chain, attempt,
                  /*is_hedge=*/false, conn);
}

void
TrafficGenerator::launchRequest(proto::NodeId src, std::uint32_t server,
                                std::uint32_t slot,
                                std::vector<std::uint8_t> request,
                                std::uint64_t chain,
                                std::uint32_t attempt, bool is_hedge,
                                ConnTag conn)
{
    ++requestsSent_;
    ++inFlight_;
    ++perServerInFlight_[server];
    // Canary accounting: a recovering server's first routed request is
    // its probe (no-op for healthy servers).
    health_.noteRouted(server);
    const proto::NodeId dst = params_.targetNode + server;
    const std::uint64_t key = reqKey(server, src, slot);
    RV_ASSERT(outstandingRequests_.find(key) ==
                  outstandingRequests_.end(),
              "slot reused while its request is still outstanding");
    // A slot freed while its previous use sat in expectedDuplicates_
    // means that duplicate's reply was lost; it can never arrive, so
    // the stale marker must not misclassify this use's late replies.
    expectedDuplicates_.erase(key);
    if (connSched_ != nullptr && conn.client != proto::noConnClient)
        connSched_->onLaunched(conn.client);
    if (request.size() > domain_.maxMsgBytes) {
        // Rendezvous (§4.2): announce the payload with a one-block
        // descriptor; the destination NI pulls it with a one-sided
        // read from this node's registered memory (the outstanding-
        // request store plays that role here).
        ++rendezvous_;
        proto::Packet descriptor;
        descriptor.hdr.op = proto::OpType::Send;
        descriptor.hdr.src = src;
        descriptor.hdr.dst = dst;
        descriptor.hdr.slot = slot;
        descriptor.hdr.totalBlocks = 1;
        descriptor.hdr.msgBytes = 0;
        descriptor.hdr.rendezvous = true;
        descriptor.hdr.rendezvousBytes =
            static_cast<std::uint32_t>(request.size());
        descriptor.hdr.connClient = conn.client;
        outstandingRequests_[key] =
            Outstanding{std::move(request), server,   sim_.now(), chain,
                        attempt,            is_hedge, is_hedge,   kNoKey,
                        conn};
        fabric_.send(std::move(descriptor));
        return;
    }
    auto packets =
        proto::packetize(proto::OpType::Send, src, dst, slot, request);
    outstandingRequests_[key] =
        Outstanding{std::move(request), server,   sim_.now(), chain,
                    attempt,            is_hedge, is_hedge,   kNoKey,
                    conn};
    for (auto &pkt : packets) {
        pkt.hdr.connClient = conn.client;
        fabric_.send(std::move(pkt));
    }
}

void
TrafficGenerator::receivePacket(proto::Packet pkt)
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
        const std::uint64_t key =
            reqKey(server, pkt.hdr.dst, pkt.hdr.slot);
        ReplyAssembly &assembly = replies_[key];
        if (assembly.total == 0) {
            assembly.total = pkt.hdr.totalBlocks;
            assembly.bytes.assign(pkt.hdr.msgBytes, 0);
        }
        const std::size_t lo =
            static_cast<std::size_t>(pkt.hdr.blockIndex) *
            proto::cacheBlockBytes;
        for (std::size_t i = 0; i < pkt.payload.size(); ++i) {
            if (lo + i < assembly.bytes.size())
                assembly.bytes[lo + i] = pkt.payload[i];
        }
        if (++assembly.arrived == assembly.total) {
            std::vector<std::uint8_t> reply = std::move(assembly.bytes);
            replies_.erase(key);
            onReplyComplete(server, pkt.hdr.dst, pkt.hdr.slot,
                            std::move(reply));
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
        const std::uint64_t key =
            reqKey(server, pkt.hdr.dst, pkt.hdr.slot);
        auto it = outstandingRequests_.find(key);
        if (it == outstandingRequests_.end()) {
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
        const std::vector<std::uint8_t> payload = it->second.bytes;
        const std::uint32_t connClient = it->second.conn.client;
        sim_.schedule(sim::nanoseconds(60.0),
                      [this, owner, reader, slot, payload, connClient] {
                          auto blocks = proto::packetize(
                              proto::OpType::ReadResponse, owner,
                              reader, slot, payload);
                          for (auto &b : blocks) {
                              b.hdr.connClient = connClient;
                              fabric_.send(std::move(b));
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
                                  std::vector<std::uint8_t> reply)
{
    const std::uint64_t key = reqKey(server, dst, slot);
    auto it = outstandingRequests_.find(key);
    if (it == outstandingRequests_.end()) {
        if (expectedDuplicates_.erase(key) > 0) {
            // The losing half of a hedge race: its winner already
            // delivered this request's answer. Expected, accounted
            // apart from genuinely stale (timed-out) replies.
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
        if (!app_.verifyReply(it->second.bytes, reply))
            ++verifyFailures_;
        const std::uint64_t chain = it->second.chain;
        const std::uint64_t sibling = it->second.sibling;
        const bool wonAsHedge = it->second.isHedge;
        const ConnTag connTag = it->second.conn;
        const std::uint32_t connReqBytes =
            static_cast<std::uint32_t>(it->second.bytes.size());
        outstandingRequests_.erase(it);
        ++repliesReceived_;
        RV_ASSERT(inFlight_ > 0, "in-flight underflow");
        --inFlight_;
        RV_ASSERT(perServerInFlight_[server] > 0,
                  "per-server in-flight underflow");
        --perServerInFlight_[server];
        health_.reportSuccess(server);
        if (sibling != kNoKey) {
            // First reply wins: retire the losing half now so its
            // late reply cannot double-complete the request. Its slot
            // credit still returns through the duplicate-reply path
            // above (the loser's reply carries the replenish).
            auto sit = outstandingRequests_.find(sibling);
            RV_ASSERT(sit != outstandingRequests_.end(),
                      "hedge sibling vanished before resolution");
            const std::uint32_t loserServer = sit->second.server;
            const ConnTag loserTag = sit->second.conn;
            outstandingRequests_.erase(sit);
            connOnRetired(loserTag);
            replies_.erase(sibling);
            RV_ASSERT(inFlight_ > 0, "in-flight underflow");
            --inFlight_;
            RV_ASSERT(perServerInFlight_[loserServer] > 0,
                      "per-server in-flight underflow");
            --perServerInFlight_[loserServer];
            expectedDuplicates_.insert(sibling);
            if (wonAsHedge)
                ++hedgesWon_;
            // A credit parked on the loser (its reply was dropped)
            // comes back now that the loser is retired.
            releaseHeldCredit(sibling);
        }
        // Likewise a credit parked on this request itself.
        releaseHeldCredit(key);
        // Connection accounting + the drain-before-switch signal; a
        // drained group's switch can admit deferred requests, which
        // re-enter this generator like the chain completion below —
        // everything above is already settled.
        connOnCompleted(connTag, connReqBytes);
        connOnRetired(connTag);
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

void
TrafficGenerator::onChainMemberDone(std::uint64_t chain)
{
    auto it = chains_.find(chain);
    RV_ASSERT(it != chains_.end(), "reply for unknown chain group");
    RV_ASSERT(it->second.remaining > 0, "chain-group underflow");
    if (--it->second.remaining > 0)
        return;
    std::function<void()> done = std::move(it->second.done);
    chains_.erase(it);
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
    const std::uint64_t key = reqKey(server, src, slot);
    if (outstandingRequests_.find(key) != outstandingRequests_.end()) {
        // The request is still outstanding on this very slot: its
        // reply was lost (per-flow FIFO delivers the reply before the
        // replenish otherwise). Reusing the slot now would alias a new
        // request under the same reply key — park the credit until
        // the outstanding request resolves.
        heldCredits_.insert(key);
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
        PendingRequest next = std::move(pending_[pair].front());
        pending_[pair].pop_front();
        launchRequest(client, server, slot, std::move(next.bytes),
                      next.chain, next.attempt, /*is_hedge=*/false,
                      next.conn);
    } else {
        freeSlots_[pair].push_back(slot);
    }
}

void
TrafficGenerator::releaseHeldCredit(std::uint64_t key)
{
    if (heldCredits_.erase(key) == 0)
        return;
    const auto slot = static_cast<std::uint32_t>(
        key % domain_.slotsPerNode);
    const auto client = static_cast<proto::NodeId>(
        (key / domain_.slotsPerNode) % domain_.numNodes);
    const auto server = static_cast<std::uint32_t>(
        key / (static_cast<std::uint64_t>(domain_.slotsPerNode) *
               domain_.numNodes));
    recycleSlot(client, server, slot);
}

void
TrafficGenerator::sweepTimeouts()
{
    if (halted_)
        return;

    const fault::RetryPolicy &retry = params_.retry;

    // Hedge scan first: requests old enough to warrant a duplicate
    // send but not yet expired. Collect, sort, then act — hedging
    // inserts outstanding entries, which must not be visited here.
    if (retry.hedgeAfter > 0) {
        std::vector<std::uint64_t> toHedge;
        for (const auto &[key, rec] : outstandingRequests_) {
            const sim::Tick age = sim_.now() - rec.sentAt;
            if (age >= retry.hedgeAfter &&
                age < params_.cluster.requestTimeout && !rec.hedged)
                toHedge.push_back(key);
        }
        std::sort(toHedge.begin(), toHedge.end());
        for (const std::uint64_t key : toHedge)
            hedgeRequest(key);
    }

    // Collect first, then act: rerouting schedules new outstanding
    // entries, which must not be visited by this sweep.
    std::vector<std::uint64_t> expired;
    for (const auto &[key, rec] : outstandingRequests_) {
        if (sim_.now() - rec.sentAt >= params_.cluster.requestTimeout)
            expired.push_back(key);
    }
    // Deterministic order: the hash map iterates in an
    // implementation-defined order, the sweep must not.
    std::sort(expired.begin(), expired.end());

    for (const std::uint64_t key : expired) {
        auto it = outstandingRequests_.find(key);
        RV_ASSERT(it != outstandingRequests_.end(),
                  "expired request vanished mid-sweep");
        const std::uint32_t server = it->second.server;
        const proto::NodeId client = static_cast<proto::NodeId>(
            (key / domain_.slotsPerNode) % domain_.numNodes);
        std::vector<std::uint8_t> request = std::move(it->second.bytes);
        const std::uint64_t chain = it->second.chain;
        const std::uint32_t attempt = it->second.attempt;
        const std::uint64_t sibling = it->second.sibling;
        const ConnTag connTag = it->second.conn;
        outstandingRequests_.erase(it);
        connOnRetired(connTag);
        // A partially assembled reply for the dead request must not
        // pollute the slot's next use.
        replies_.erase(key);
        ++timeouts_;
        RV_ASSERT(inFlight_ > 0, "in-flight underflow");
        --inFlight_;
        RV_ASSERT(perServerInFlight_[server] > 0,
                  "per-server in-flight underflow");
        --perServerInFlight_[server];
        // The slot is deliberately NOT reclaimed unless its replenish
        // already came back (a parked credit proves the server's recv
        // slot is free): a slow-but-alive server still returns it via
        // replenish; a dead server's slots stay consumed until it
        // recovers.
        releaseHeldCredit(key);
        if (health_.reportFailure(server, sim_.now())) {
            // Transition to down: everything queued toward this
            // server would wait forever — reroute it now.
            drainPending(server);
        }
        if (sibling != kNoKey) {
            // Half of a hedge pair expired; the surviving half still
            // covers the request, so no re-dispatch — just unlink the
            // survivor (it resolves alone from here).
            auto sit = outstandingRequests_.find(sibling);
            if (sit != outstandingRequests_.end())
                sit->second.sibling = kNoKey;
            continue;
        }
        if (retry.maxAttempts > 0 && attempt >= retry.maxAttempts) {
            // Attempt budget exhausted: give up for real. A chained
            // member still counts toward its group so the parent's
            // deferred reply is not wedged forever.
            ++retryDrops_;
            if (chain != 0)
                onChainMemberDone(chain);
            continue;
        }
        // Reroutes keep their chain group: a chain member survives
        // timeouts without double-counting toward the group.
        ++retries_;
        ++reroutes_;
        sim::Tick backoff = 0;
        if (retry.baseBackoff > 0) {
            double delay = static_cast<double>(retry.baseBackoff);
            for (std::uint32_t a = 1; a < attempt; ++a)
                delay *= retry.multiplier;
            if (retry.jitter > 0.0) {
                delay *= 1.0 + retry.jitter *
                                   (2.0 * retryRng_.uniform() - 1.0);
            }
            backoff = static_cast<sim::Tick>(delay);
        }
        if (connTag.client != proto::noConnClient) {
            // A retried conn request re-enters the admission gate with
            // a fresh generation time: its client's group may have
            // rotated away since the original send.
            const std::uint32_t connClient = connTag.client;
            if (backoff == 0) {
                connSubmit(connClient, std::move(request), chain,
                           attempt + 1);
            } else {
                sim_.schedule(
                    backoff, [this, connClient, chain, attempt,
                              request = std::move(request)]() mutable {
                        if (halted_)
                            return;
                        connSubmit(connClient, std::move(request),
                                   chain, attempt + 1);
                    });
            }
        } else if (backoff == 0) {
            // Legacy path: immediate re-dispatch, no extra event.
            dispatchRequest(client, std::move(request), chain,
                            attempt + 1);
        } else {
            sim_.schedule(
                backoff, [this, client, chain, attempt,
                          request = std::move(request)]() mutable {
                    if (halted_)
                        return;
                    dispatchRequest(client, std::move(request), chain,
                                    attempt + 1);
                });
        }
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
    auto it = outstandingRequests_.find(primary_key);
    RV_ASSERT(it != outstandingRequests_.end(),
              "hedge candidate vanished mid-sweep");
    const proto::NodeId client = static_cast<proto::NodeId>(
        (primary_key / domain_.slotsPerNode) % domain_.numNodes);
    std::vector<std::uint8_t> copy = it->second.bytes;
    const std::uint64_t chain = it->second.chain;
    const std::uint32_t attempt = it->second.attempt;
    // The duplicate covers the same logical client's request, so it
    // inherits the primary's connection identity (its admission was
    // already granted; hedging does not re-enter the gate).
    const ConnTag connTag = it->second.conn;
    // Route the duplicate independently — under load-aware routing it
    // lands on a less-loaded (often different) server than the slow
    // primary.
    const std::uint32_t server = routeRequest(client, copy);
    const std::size_t pair = pairIndex(client, server);
    if (freeSlots_[pair].empty()) {
        // No free slot toward the hedge's target: skip rather than
        // queue (a queued hedge would only add load where it hurts);
        // the next sweep retries while the primary lives.
        return;
    }
    const std::uint32_t slot = freeSlots_[pair].back();
    freeSlots_[pair].pop_back();
    const std::uint64_t hedgeKey = reqKey(server, client, slot);
    // The hedge shares the primary's chain group; exactly one of the
    // pair completes it (the loser retires as a duplicate).
    launchRequest(client, server, slot, std::move(copy), chain, attempt,
                  /*is_hedge=*/true, connTag);
    ++hedgesSent_;
    // launchRequest may rehash the map: re-find both halves to link.
    auto pit = outstandingRequests_.find(primary_key);
    auto hit = outstandingRequests_.find(hedgeKey);
    RV_ASSERT(pit != outstandingRequests_.end() &&
                  hit != outstandingRequests_.end(),
              "hedge pair lookup failed after launch");
    pit->second.hedged = true;
    pit->second.sibling = hedgeKey;
    hit->second.sibling = primary_key;
}

void
TrafficGenerator::drainPending(std::uint32_t server)
{
    std::vector<std::pair<proto::NodeId, PendingRequest>> queued;
    for (proto::NodeId n = 0; n < domain_.numNodes; ++n) {
        auto &q = pending_[pairIndex(n, server)];
        while (!q.empty()) {
            queued.emplace_back(n, std::move(q.front()));
            q.pop_front();
        }
    }
    for (auto &[client, request] : queued) {
        ++reroutes_;
        dispatchRequest(client, std::move(request.bytes), request.chain,
                        request.attempt, request.conn);
    }
}

} // namespace rpcvalet::net
