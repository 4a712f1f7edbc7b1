#include "node/rpc_node.hh"

#include <algorithm>
#include <utility>

#include "mem/memory_model.hh"
#include "sim/logging.hh"

namespace rpcvalet::node {

namespace {

/** splitmix64 finalizer (full-avalanche hash for RSS-style steering). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Approximate on-chip message sizes (bytes) for latency modeling. */
constexpr std::uint32_t cqeBytes = 16;
constexpr std::uint32_t wqeBytes = 32;
constexpr std::uint32_t completionPacketBytes = 16;

} // namespace

RpcNode::RpcNode(sim::EventDomain &sim, const SystemParams &params,
                 app::RpcApplication &app, net::Fabric &fabric)
    : sim_(sim), params_(params), app_(app), fabric_(fabric),
      mesh_(params.meshRows, params.meshCols),
      recv_(params.domain), send_(params.domain),
      cores_(params.numCores),
      serverRng_(params.seed, /*stream=*/0xA4B),
      hashSalt_(mix64(params.seed ^ 0x5555AAAAuLL))
{
    params_.validate();

    RV_ASSERT(!app_.requestClasses().empty(),
              "application declares no request classes");

    for (std::uint32_t b = 0; b < params_.numBackends; ++b) {
        backends_.push_back(std::make_unique<ni::NiBackend>(
            sim_, b, recv_,
            [this](std::uint32_t bid, proto::CompletionQueueEntry cqe) {
                onMessageComplete(bid, std::move(cqe));
            },
            [this](proto::NodeId dst, std::uint32_t slot) {
                if (replySlotEvictions_ > 0 &&
                    !send_.slotBusy(dst, slot)) {
                    // A replenish for a slot the lease already
                    // evicted (its reply was delayed past the lease
                    // rather than dropped — possible only under
                    // extreme injected delay). The credit was
                    // reclaimed up front; ignore the echo. Without
                    // evictions this stays a protocol violation,
                    // caught by release's assert.
                    return;
                }
                send_.release(dst, slot);
            },
            [this](const proto::Packet &pkt) { fabric_.send(pkt); }));
    }

    auto make_deliver = [this](std::uint32_t backend_id) {
        return [this, backend_id](proto::CoreId core,
                                  proto::CompletionQueueEntry cqe) {
            scheduleCqeHop(CqeEvent::Kind::Deliver, core, std::move(cqe),
                           cqeDeliveryDelay(backend_id, core));
        };
    };

    switch (params_.mode) {
      case ni::DispatchMode::SingleQueue: {
        std::vector<proto::CoreId> all;
        for (proto::CoreId c = 0; c < params_.numCores; ++c)
            all.push_back(c);
        ni::Dispatcher::Params dp;
        dp.outstandingThreshold = params_.outstandingPerCore;
        dp.seed = params_.seed;
        dispatchers_.push_back(std::make_unique<ni::Dispatcher>(
            sim_, dp, ni::makePolicy(params_.policy), params_.numCores,
            std::move(all), make_deliver(params_.dispatcherBackend)));
        break;
      }
      case ni::DispatchMode::PerBackendGroup: {
        const std::uint32_t group = params_.numCores / params_.numBackends;
        for (std::uint32_t d = 0; d < params_.numBackends; ++d) {
            std::vector<proto::CoreId> cand;
            for (std::uint32_t i = 0; i < group; ++i)
                cand.push_back(d * group + i);
            ni::Dispatcher::Params dp;
            dp.outstandingThreshold = params_.outstandingPerCore;
            dp.seed = params_.seed + d;
            dispatchers_.push_back(std::make_unique<ni::Dispatcher>(
                sim_, dp, ni::makePolicy(params_.policy),
                params_.numCores, std::move(cand), make_deliver(d)));
        }
        break;
      }
      case ni::DispatchMode::StaticHash:
        break; // CQEs go straight to the hashed core
      case ni::DispatchMode::SoftwarePull:
        swQueue_ = std::make_unique<sync::SoftwareSharedQueue>(sim_);
        break;
    }

    fabric_.connect(params_.nodeId,
                    [this](const proto::Packet &pkt) {
                        receivePacket(pkt);
                    });
}

void
RpcNode::start()
{
    if (params_.mode != ni::DispatchMode::SoftwarePull)
        return;
    for (proto::CoreId core = 0; core < params_.numCores; ++core)
        requestSoftwarePull(core);
}

void
RpcNode::setCompletionHook(CompletionHook hook)
{
    completionHook_ = std::move(hook);
}

void
RpcNode::setNestedIssuer(NestedIssuer issuer)
{
    nestedIssuer_ = std::move(issuer);
}

std::uint32_t
RpcNode::ingressBackendFor(proto::NodeId src, std::uint32_t slot) const
{
    // All packets of one message route through the same backend; the
    // (src, slot) hash keeps messages spread uniformly across the
    // replicated backends (Fig. 4 parallelism).
    const std::uint64_t h =
        mix64(static_cast<std::uint64_t>(src) * 0x100000001b3ULL + slot +
              hashSalt_);
    return static_cast<std::uint32_t>(h % params_.numBackends);
}

std::uint32_t
RpcNode::egressBackendFor(proto::CoreId core) const
{
    // A core transmits through its row's edge backend (nearest).
    const noc::Coord c = mesh_.coreCoord(core);
    return static_cast<std::uint32_t>(c.row) % params_.numBackends;
}

proto::CoreId
RpcNode::staticHashCore(proto::NodeId src, std::uint32_t slot) const
{
    // RSS-style static spreading (§2.3): purely header-driven, no load
    // information — the 16x1 configuration of Fig. 1.
    const std::uint64_t h =
        mix64((static_cast<std::uint64_t>(src) << 20) ^ slot ^
              (hashSalt_ * 0x9e3779b97f4a7c15ULL));
    return static_cast<proto::CoreId>(h % params_.numCores);
}

RpcNode::DispatcherHop
RpcNode::dispatcherHopFor(proto::CoreId core) const
{
    RV_ASSERT(hasDispatcher(), "no dispatcher in this mode");
    // The single queue's dispatcher sits at its own backend; a
    // per-backend group's dispatcher is that backend.
    if (params_.mode == ni::DispatchMode::SingleQueue)
        return {0, wqeDelay(core, params_.dispatcherBackend)};
    const std::uint32_t d = core / (params_.numCores / params_.numBackends);
    return {d, wqeDelay(core, d)};
}

sim::Tick
RpcNode::cqeDeliveryDelay(std::uint32_t backend_id, proto::CoreId core) const
{
    return mesh_.backendToCore(backend_id, core, cqeBytes) +
           mem::qpTransferLatency;
}

sim::Tick
RpcNode::wqeDelay(proto::CoreId core, std::uint32_t backend_id) const
{
    return mem::qpTransferLatency +
           mesh_.coreToBackend(core, backend_id, wqeBytes);
}

void
RpcNode::receivePacket(const proto::Packet &pkt)
{
    if (failed_) {
        ++droppedPackets_;
        return;
    }
    const std::uint32_t backend =
        ingressBackendFor(pkt.hdr.src, pkt.hdr.slot);
    backends_[backend]->receivePacket(pkt);
}

void
RpcNode::onMessageComplete(std::uint32_t backend_id,
                           proto::CompletionQueueEntry cqe)
{
    // Connection-context cache (src/conn/): when the NI can only hold
    // qpCacheCapacity connection contexts, a message from an uncached
    // (src, client) pair pays the context fetch from memory before its
    // completion can be dispatched. Default runs (capacity 0, or no
    // client-population model tagging packets) skip this entirely.
    if (params_.qpCacheCapacity > 0 &&
        cqe.connClient != proto::noConnClient &&
        !qpCacheLookup(cqe.srcNode, cqe.connClient)) {
        // The fetch engine is a shared, pipelined resource: it can
        // START a new context fetch every qpFetchGap, and each fetch
        // completes qpColdFetch after it starts. Under cache thrash
        // the engine saturates and misses queue behind each other —
        // the throughput collapse that makes connection grouping
        // worthwhile, not just a fixed latency adder.
        const sim::Tick now = sim_.now();
        const sim::Tick issue =
            std::max(now, qpFetchNextIssue_);
        qpFetchNextIssue_ = issue + qpFetchGap;
        const sim::Tick done = issue + params_.qpColdFetch;
        sim_.schedule(done - now, [this, backend_id, cqe] {
            dispatchMessage(backend_id, cqe);
        });
        return;
    }
    dispatchMessage(backend_id, std::move(cqe));
}

bool
RpcNode::qpCacheLookup(proto::NodeId src, std::uint32_t conn_client)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src) << 32) | conn_client;
    auto it = qpLruPos_.find(key);
    if (it != qpLruPos_.end()) {
        ++qpHits_;
        qpLru_.splice(qpLru_.begin(), qpLru_, it->second);
        return true;
    }
    ++qpMisses_;
    if (qpLruPos_.size() >= params_.qpCacheCapacity) {
        qpLruPos_.erase(qpLru_.back());
        qpLru_.pop_back();
    }
    qpLru_.push_front(key);
    qpLruPos_[key] = qpLru_.begin();
    return false;
}

void
RpcNode::dispatchMessage(std::uint32_t backend_id,
                         proto::CompletionQueueEntry cqe)
{
    switch (params_.mode) {
      case ni::DispatchMode::SingleQueue: {
        // §4.3: the backend wraps the completion in a special packet
        // and forwards it to the NI dispatcher over the mesh.
        const sim::Tick delay = mesh_.backendToBackend(
            backend_id, params_.dispatcherBackend, completionPacketBytes);
        scheduleCqeHop(CqeEvent::Kind::DispatchEnqueue, 0, std::move(cqe),
                       delay);
        break;
      }
      case ni::DispatchMode::PerBackendGroup:
        // The receiving backend is its own dispatcher.
        dispatchers_[backend_id]->enqueue(std::move(cqe));
        break;
      case ni::DispatchMode::StaticHash: {
        const proto::CoreId core =
            staticHashCore(cqe.srcNode,
                           params_.domain.slotOffset(cqe.slotIndex));
        scheduleCqeHop(CqeEvent::Kind::Deliver, core, std::move(cqe),
                       cqeDeliveryDelay(backend_id, core));
        break;
      }
      case ni::DispatchMode::SoftwarePull: {
        // NIs append to the software queue in shared memory (§6.2).
        scheduleCqeHop(CqeEvent::Kind::SwPush, 0, std::move(cqe),
                       mem::llcLatency);
        break;
      }
    }
}

void
RpcNode::scheduleCqeHop(CqeEvent::Kind kind, proto::CoreId core,
                        proto::CompletionQueueEntry cqe, sim::Tick delay)
{
    CqeEvent *ev = cqePool_.acquire();
    ev->node = this;
    ev->kind = kind;
    ev->core = core;
    ev->cqe = std::move(cqe);
    sim_.schedule(*ev, delay);
}

void
RpcNode::CqeEvent::process()
{
    RpcNode *n = node;
    const Kind k = kind;
    const proto::CoreId c = core;
    proto::CompletionQueueEntry e = std::move(cqe);
    // Recycle first: the hop's handler can schedule further hops.
    n->cqePool_.release(this);
    switch (k) {
      case Kind::DispatchEnqueue:
        n->dispatchers_[0]->enqueue(std::move(e));
        break;
      case Kind::Deliver:
        n->deliverCqeToCore(c, std::move(e));
        break;
      case Kind::SwPush:
        n->swQueue_->push(std::move(e));
        break;
    }
}

void
RpcNode::deliverCqeToCore(proto::CoreId core,
                          proto::CompletionQueueEntry cqe)
{
    cqe.deliveredTick = sim_.now();
    Core &c = cores_[core];
    c.privateCq.push(std::move(cqe));
    if (!c.busy)
        coreMaybeStart(core, /*was_idle=*/true);
}

void
RpcNode::coreMaybeStart(proto::CoreId core, bool was_idle)
{
    Core &c = cores_[core];
    if (c.busy || c.privateCq.empty())
        return;
    proto::CompletionQueueEntry cqe = c.privateCq.pop();
    runRpc(core, std::move(cqe), was_idle);
}

void
RpcNode::stallNi(sim::Tick until)
{
    for (auto &backend : backends_)
        backend->stallIngress(until);
}

void
RpcNode::setCoreSlowdown(proto::CoreId core, double factor)
{
    RV_ASSERT(core < cores_.size(), "slow-core target out of range");
    RV_ASSERT(factor >= 1.0, "core slowdown factor must be >= 1");
    if (coreSlowdown_.empty())
        coreSlowdown_.assign(cores_.size(), 1.0);
    coreSlowdown_[core] = factor;
}

void
RpcNode::setRecording(bool recording)
{
    // Opening the measurement window restarts peak-occupancy tracking,
    // so recvSlotPeak/sharedCqPeak and friends describe the measured
    // interval instead of whatever the warmup burst piled up.
    if (recording && !recording_) {
        for (Core &c : cores_)
            c.privateCq.resetHighWatermark();
        for (auto &d : dispatchers_)
            d->resetSharedCqPeak();
    }
    recording_ = recording;
}

bool
RpcNode::hasDispatcher() const
{
    return params_.mode == ni::DispatchMode::SingleQueue ||
           params_.mode == ni::DispatchMode::PerBackendGroup;
}

void
RpcNode::runRpc(proto::CoreId core, proto::CompletionQueueEntry cqe,
                bool was_idle)
{
    Core &c = cores_[core];
    RV_ASSERT(!c.busy, "core started an RPC while busy");
    c.busy = true;
    const sim::Tick busy_start = sim_.now();

    // A continuation of a previously preempted RPC resumes directly:
    // the handler already ran; only the remaining processing time and
    // a context restore are due.
    if (auto it = continuations_.find(cqe.slotIndex);
        it != continuations_.end()) {
        const sim::Tick pre =
            (was_idle ? costs::pollDetect : sim::Tick(0)) + costs::cqeParse +
            preemptionOverhead;
        runSlice(core, std::move(cqe), pre, busy_start);
        return;
    }

    // Fresh RPC: functional execution against the receive buffer's
    // actual bytes.
    const mem::RecvSlot &slot = recv_.slot(cqe.slotIndex);
    RV_ASSERT(slot.busy, "RPC references a released receive slot");
    RV_ASSERT(slot.arrivedBlocks == slot.totalBlocks,
              "RPC dispatched before message completion");
    app::HandleResult result = app_.handle(slot.payload, serverRng_);

    sim::Tick processing = sim::nanoseconds(result.processingNs);
    // slow-core fault: this core's handler time is stretched while the
    // factor is set (the vector stays empty until a fault first fires).
    if (!coreSlowdown_.empty() && coreSlowdown_[core] > 1.0) {
        processing = static_cast<sim::Tick>(
            static_cast<double>(processing) * coreSlowdown_[core]);
    }
    const sim::Tick base_pre =
        (was_idle ? costs::pollDetect : sim::Tick(0)) + costs::cqeParse +
        costs::requestRead + costs::appDispatch;

    if (params_.preemptionQuantum > 0 && hasDispatcher() &&
        processing > params_.preemptionQuantum) {
        // Shinjuku-style yield: bank the continuation, run one quantum.
        continuations_[cqe.slotIndex] = Continuation{
            processing - params_.preemptionQuantum, std::move(result)};
        const sim::Tick pre =
            base_pre + params_.preemptionQuantum + preemptionOverhead;
        scheduleService(ServiceEvent::Stage::Yield, core, std::move(cqe), {},
                        busy_start, pre);
        return;
    }

    // A chained handler: the nested RPCs depart once the handler's own
    // processing is done; the reply (and its build cost) waits for the
    // chain. Non-nesting workloads never reach this branch, keeping
    // their event sequence bit-identical.
    if (!result.nested.empty()) {
        scheduleService(ServiceEvent::Stage::NestedIssue, core, std::move(cqe),
                        std::move(result), busy_start, base_pre + processing);
        return;
    }
    scheduleService(ServiceEvent::Stage::Reply, core, std::move(cqe),
                    std::move(result), busy_start,
                    base_pre + processing + costs::replyBuild);
}

void
RpcNode::scheduleService(ServiceEvent::Stage stage, proto::CoreId core,
                         proto::CompletionQueueEntry cqe,
                         app::HandleResult result, sim::Tick busy_start,
                         sim::Tick delay)
{
    ServiceEvent *ev = servicePool_.acquire();
    ev->node = this;
    ev->stage = stage;
    ev->core = core;
    ev->detached = false;
    ev->cqe = std::move(cqe);
    ev->result = std::move(result);
    ev->busyStart = busy_start;
    sim_.schedule(*ev, delay);
}

void
RpcNode::ServiceEvent::process()
{
    node->serviceStage(*this);
}

void
RpcNode::serviceStage(ServiceEvent &ev)
{
    switch (ev.stage) {
      case ServiceEvent::Stage::Yield:
        yieldRpc(ev);
        break;
      case ServiceEvent::Stage::YieldNotify: {
        // §4.3: the continuation re-enters the shared CQ (FIFO tail)
        // and the core's credit returns, in that order.
        const std::uint32_t d = ev.dispatcher;
        const proto::CoreId core = ev.core;
        proto::CompletionQueueEntry cqe = std::move(ev.cqe);
        servicePool_.release(&ev);
        dispatchers_[d]->enqueue(std::move(cqe));
        dispatchers_[d]->onReplenish(core);
        break;
      }
      case ServiceEvent::Stage::NestedIssue:
        issueNestedStage(ev);
        break;
      case ServiceEvent::Stage::Reply:
        attemptReply(ev);
        break;
      case ServiceEvent::Stage::Finish:
        finishRpc(ev);
        break;
      case ServiceEvent::Stage::Loop: {
        // §5 loop bookkeeping, then look for the next request.
        const proto::CoreId core = ev.core;
        const sim::Tick busy_start = ev.busyStart;
        servicePool_.release(&ev);
        busyAccum_ += sim_.now() - busy_start;
        corePullNext(core);
        break;
      }
    }
}

void
RpcNode::runSlice(proto::CoreId core, proto::CompletionQueueEntry cqe,
                  sim::Tick pre_cost, sim::Tick busy_start)
{
    auto it = continuations_.find(cqe.slotIndex);
    RV_ASSERT(it != continuations_.end(), "missing continuation");
    Continuation &cont = it->second;

    if (cont.remaining > params_.preemptionQuantum) {
        cont.remaining -= params_.preemptionQuantum;
        const sim::Tick pre =
            pre_cost + params_.preemptionQuantum + preemptionOverhead;
        scheduleService(ServiceEvent::Stage::Yield, core, std::move(cqe), {},
                        busy_start, pre);
        return;
    }

    // Final slice: finish the remaining work and take the normal exit
    // path — nested fan-out if the handler chained, else the reply.
    const sim::Tick remaining = cont.remaining;
    app::HandleResult result = std::move(cont.result);
    continuations_.erase(it);
    if (!result.nested.empty()) {
        scheduleService(ServiceEvent::Stage::NestedIssue, core, std::move(cqe),
                        std::move(result), busy_start, pre_cost + remaining);
        return;
    }
    scheduleService(ServiceEvent::Stage::Reply, core, std::move(cqe),
                    std::move(result), busy_start,
                    pre_cost + remaining + costs::replyBuild);
}

void
RpcNode::yieldRpc(ServiceEvent &ev)
{
    ++preemptionYields_;
    // The continuation re-enters the dispatcher's shared CQ (FIFO
    // tail) and the core's credit returns; both notifications travel
    // the same core-to-dispatcher path as a replenish (§4.3). The
    // event itself becomes the notify carrier.
    const proto::CoreId core = ev.core;
    const DispatcherHop hop = dispatcherHopFor(core);
    ev.stage = ServiceEvent::Stage::YieldNotify;
    ev.dispatcher = hop.dispatcher;
    sim_.schedule(ev, hop.delay);

    // Slice occupancy counts toward S-bar; the RPC itself completes
    // later, so servedTotal does not move here.
    busyAccum_ += sim_.now() - ev.busyStart;
    corePullNext(core);
}

void
RpcNode::issueNestedStage(ServiceEvent &ev)
{
    // The handler ran to completion and declared nested RPCs. The
    // parent becomes a detached continuation: its core is released
    // (occupancy counts only the handler's own processing, so S-bar
    // stays honest) and its reply resumes — off-core, reply-build cost
    // only — once the chain group completes. The receive slot stays
    // busy meanwhile, exactly like a thread parked on pending I/O.
    if (!nestedIssuer_) {
        sim::fatal("workload issued nested RPCs but this node has no "
                   "nested issuer: chained workloads need the sequential "
                   "path (core::runExperiment with parallelDomains = 0), "
                   "which wires the traffic generator as every node's "
                   "issuer");
    }
    const proto::CoreId core = ev.core;
    busyAccum_ += sim_.now() - ev.busyStart;

    // The core's dispatch credit returns now, not at the (deferred)
    // replenish: the core really is free to serve other RPCs while
    // the chain is in flight.
    notifyDispatcherCredit(core);

    std::vector<std::vector<std::uint8_t>> nested =
        std::move(ev.result.nested);
    ev.result.nested.clear();
    ServiceEvent *parent = &ev;
    corePullNext(core);
    nestedIssuer_(std::move(nested), [this, parent] {
        parent->detached = true;
        parent->stage = ServiceEvent::Stage::Reply;
        sim_.schedule(*parent, costs::replyBuild);
    });
}

void
RpcNode::attemptReply(ServiceEvent &ev)
{
    const proto::CoreId core = ev.core;
    const proto::NodeId requester = ev.cqe.srcNode;
    const std::uint32_t slot_off =
        params_.domain.slotOffset(ev.cqe.slotIndex);

    // Slot-mirrored reply: response to request slot s departs on send
    // slot s toward the requester.
    if (send_.slotBusy(requester, slot_off)) {
        const bool lease_expired =
            params_.replySlotLease > 0 && ev.replyWaitStart != 0 &&
            sim_.now() - ev.replyWaitStart >= params_.replySlotLease;
        if (!lease_expired) {
            // Mirrored slot still awaiting its replenish: spin and
            // retry (the core stays busy, §4.2 flow control).
            if (ev.replyWaitStart == 0)
                ev.replyWaitStart = sim_.now();
            ++replySlotStalls_;
            sim_.schedule(ev, sendSlotRetry);
            return;
        }
        // The occupant's replenish is overdue by far more than a
        // round trip plus client turnaround: its reply was lost to
        // packet-loss injection, so the credit can never return and
        // the occupant's client long ago timed the request out.
        // Reclaim the slot rather than spinning this core forever.
        send_.release(requester, slot_off);
        ++replySlotEvictions_;
    }
    ev.replyWaitStart = 0;
    const bool acquired = send_.acquireSpecific(
        requester, slot_off, std::move(ev.result.reply));
    RV_ASSERT(acquired, "mirrored slot raced despite busy probe");

    const std::uint32_t eb = egressBackendFor(core);

    // §4.2 "Send operation": the WQE reaches the NI, which reads the
    // payload and streams the packets.
    sim_.schedule(costs::sendPost + wqeDelay(core, eb),
                  [this, eb, requester, slot_off] {
                      backends_[eb]->transmitMessage(
                          proto::OpType::Send, params_.nodeId, requester,
                          slot_off, send_.payload(requester, slot_off));
                  });

    // §5 step iv: replenish is posted right after the send; latency
    // measurement ends there.
    ev.critical = ev.result.latencyCritical;
    ev.stage = ServiceEvent::Stage::Finish;
    sim_.schedule(ev, costs::sendPost + costs::replenishPost);
}

void
RpcNode::finishRpc(ServiceEvent &ev)
{
    const proto::CoreId core = ev.core;
    const proto::CompletionQueueEntry &cqe = ev.cqe;
    const bool critical = ev.critical;
    const sim::Tick busy_start = ev.busyStart;

    ++servedTotal_;
    if (critical)
        ++servedCritical_;
    ++cores_[core].served;

    if (recording_) {
        samples_.push_back(Sample{cqe.firstPacketTick, cqe.completionTick,
                                  cqe.deliveredTick, busy_start, sim_.now(),
                                  ev.result.classId, critical});
    }

    const proto::NodeId requester = cqe.srcNode;
    const std::uint32_t slot_off =
        params_.domain.slotOffset(cqe.slotIndex);
    const std::uint32_t eb = egressBackendFor(core);

    // The receive slot is reusable once the replenish is on its way:
    // the sender will not reuse the slot before seeing the credit.
    recv_.release(cqe.slotIndex);

    sim_.schedule(wqeDelay(core, eb), [this, eb, requester, slot_off] {
        backends_[eb]->transmitMessage(proto::OpType::Replenish,
                                       params_.nodeId, requester,
                                       slot_off, {});
    });

    // Tell the dispatcher this core freed a credit (hardware modes).
    // A detached parent already returned its credit when its nested
    // RPCs departed (issueNestedStage) — no second notify.
    if (!ev.detached)
        notifyDispatcherCredit(core);

    if (completionHook_)
        completionHook_();

    if (ev.detached) {
        // The core moved on long ago (issueNestedStage accounted its
        // occupancy and pulled the next request); the parent's
        // bookkeeping above is all that was left.
        servicePool_.release(&ev);
        return;
    }

    // §5 loop bookkeeping, then look for the next request (the event
    // carries itself into the Loop epilogue).
    ev.stage = ServiceEvent::Stage::Loop;
    sim_.schedule(ev, costs::loopOverhead);
}

void
RpcNode::notifyDispatcherCredit(proto::CoreId core)
{
    if (!hasDispatcher())
        return;
    const DispatcherHop hop = dispatcherHopFor(core);
    const std::uint32_t d = hop.dispatcher;
    sim_.schedule(hop.delay,
                  [this, d, core] { dispatchers_[d]->onReplenish(core); });
}

void
RpcNode::corePullNext(proto::CoreId core)
{
    Core &c = cores_[core];
    c.busy = false;
    if (params_.mode == ni::DispatchMode::SoftwarePull) {
        requestSoftwarePull(core);
        return;
    }
    coreMaybeStart(core, /*was_idle=*/false);
}

void
RpcNode::requestSoftwarePull(proto::CoreId core)
{
    swQueue_->requestPull(
        [this, core](const proto::CompletionQueueEntry &entry) {
            proto::CompletionQueueEntry granted = entry;
            granted.deliveredTick = sim_.now();
            runRpc(core, std::move(granted), /*was_idle=*/false);
        });
}

double
RpcNode::meanServiceTimeNs() const
{
    if (servedTotal_ == 0)
        return 0.0;
    return sim::toNs(busyAccum_) / static_cast<double>(servedTotal_);
}

std::vector<std::uint64_t>
RpcNode::perCoreServed() const
{
    std::vector<std::uint64_t> out;
    out.reserve(cores_.size());
    for (const Core &c : cores_)
        out.push_back(c.served);
    return out;
}

std::uint32_t
RpcNode::recvSlotPeak() const
{
    return recv_.busyHighWatermark();
}

std::uint32_t
RpcNode::recvSlotsBusy() const
{
    return recv_.busyCount();
}

const ni::Dispatcher *
RpcNode::dispatcher(std::uint32_t index) const
{
    if (index >= dispatchers_.size())
        return nullptr;
    return dispatchers_[index].get();
}

const sync::SoftwareSharedQueue *
RpcNode::softwareQueue() const
{
    return swQueue_.get();
}

const ni::NiBackend &
RpcNode::backend(std::uint32_t index) const
{
    RV_ASSERT(index < backends_.size(), "backend index out of range");
    return *backends_[index];
}

} // namespace rpcvalet::node
