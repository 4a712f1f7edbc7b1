#include "ni/backend.hh"

#include <algorithm>
#include <utility>

#include "mem/memory_model.hh"
#include "sim/logging.hh"

namespace rpcvalet::ni {

NiBackend::NiBackend(sim::EventDomain &sim, std::uint32_t id,
                     mem::RecvBuffer &recv, CompletionHandler on_complete,
                     ReplenishHandler on_replenish, net::Fabric &fabric)
    : sim_(sim), id_(id), recv_(recv),
      onComplete_(std::move(on_complete)),
      onReplenish_(std::move(on_replenish)), fabric_(fabric)
{
    RV_ASSERT(onComplete_ != nullptr, "backend needs a completion hook");
    RV_ASSERT(onReplenish_ != nullptr, "backend needs a replenish hook");
}

void
NiBackend::stallIngress(sim::Tick until)
{
    stallUntil_ = std::max(stallUntil_, until);
}

void
NiBackend::receive(proto::Train &train)
{
    // Serialize packets through the ingress pipeline; an injected
    // stall (stallIngress) holds the pipeline's next free slot back.
    // The blocks enter back to back: block b leaves the pipeline at
    // start + (b + 1) * occupancy.
    const sim::Tick arrival = sim_.now();
    const sim::Tick start =
        std::max({arrival, ingressFreeAt_, stallUntil_});
    const std::uint32_t n = train.blocks();
    const sim::Tick work = n * backendPacketOccupancy;
    ingressFreeAt_ = start + work;
    ingressBusy_ += work;
    packetsReceived_ += n;
    // §4.4: write the payload blocks and bump the arrival counter as
    // the packets enter; only a claim or a completion is left for a
    // pipeline exit. A send's first-received block claims the slot as
    // it leaves; the last-received one completes the message (a whole
    // train always does, and a one-block message does both on one
    // event).
    mem::Staged staged;
    if (train.hdr.op == proto::OpType::Send ||
        train.hdr.op == proto::OpType::ReadResponse) {
        staged = recv_.stage(train, arrival);
        if (staged.claims && n > 1) {
            scheduleIngress(train.hdr, mem::Staged{true, false},
                            start + backendPacketOccupancy);
            staged.claims = false;
        }
        if (!staged.claims && !staged.completes)
            return;
    }
    scheduleIngress(train.hdr, staged, ingressFreeAt_);
}

void
NiBackend::scheduleIngress(const proto::PacketHeader &hdr,
                           mem::Staged staged, sim::Tick exit)
{
    IngressEvent *ev = ingressPool_.acquire();
    ev->backend = this;
    ev->hdr = hdr;
    ev->staged = staged;
    sim_.scheduleAt(*ev, exit);
}

void
NiBackend::IngressEvent::process()
{
    // Process straight from the event, then recycle it: processing
    // that receives or forwards more packets draws other events.
    backend->processIngress(hdr, staged);
    backend->ingressPool_.release(this);
}

void
NiBackend::InjectEvent::process()
{
    backend->fabric_.send(pkt);
    backend->injectPool_.release(this);
}

void
NiBackend::CompletionEvent::process()
{
    NiBackend *b = backend;
    const proto::CompletionQueueEntry entry = cqe;
    b->completionPool_.release(this);
    b->onComplete_(b->id_, entry);
}

void
NiBackend::processIngress(const proto::PacketHeader &hdr, mem::Staged staged)
{
    switch (hdr.op) {
      case proto::OpType::Send: {
        // The block and counter were staged at arrival; the first-
        // received packet claims the slot as it leaves the pipeline,
        // and the last-received one completes the message.
        const std::uint32_t index =
            recv_.domain().slotIndex(hdr.src, hdr.slot);
        if (staged.claims)
            recv_.claim(index);
        if (!staged.completes)
            break;
        if (hdr.rendezvous) {
            // §4.2 rendezvous: the descriptor names the payload's
            // location and size; the NI pulls it with a one-sided
            // read rather than notifying a core yet.
            const std::uint32_t full = hdr.rendezvousBytes;
            recv_.beginRendezvous(index, full);
            ++rendezvousPulls_;
            ++packetsSent_;
            // The read is one bodiless packet naming the full size; it
            // leaves one counter update from now.
            proto::makeTrain(txTrain_, proto::OpType::RemoteRead,
                             /*src=*/hdr.dst, /*dst=*/hdr.src, hdr.slot,
                             {});
            txTrain_.hdr.msgBytes = full;
            fabric_.send(txTrain_, sim_.now() + mem::counterUpdateLatency);
            break;
        }
        signalCompletion(index, hdr.src, hdr.connClient);
        break;
      }
      case proto::OpType::ReadResponse: {
        // Rendezvous pull data coming back; only the block that
        // completes the pull gets here (staged at arrival like a send).
        RV_ASSERT(staged.completes, "read response event without work");
        const std::uint32_t index =
            recv_.domain().slotIndex(hdr.src, hdr.slot);
        signalCompletion(index, hdr.src, hdr.connClient);
        break;
      }
      case proto::OpType::Replenish:
        // §4.2 step C: reset the valid field of the named send slot.
        onReplenish_(hdr.src, hdr.slot);
        break;
      case proto::OpType::RemoteRead:
      case proto::OpType::RemoteWrite:
        // Plain one-sided ops require no CPU notification (§3.3); the
        // RPC experiments never issue them to the modeled node.
        break;
    }
}

void
NiBackend::signalCompletion(std::uint32_t index, proto::NodeId src,
                            std::uint32_t conn_client)
{
    const mem::RecvSlot &slot = recv_.slot(index);
    proto::CompletionQueueEntry cqe;
    cqe.slotIndex = index;
    cqe.srcNode = src;
    cqe.msgBytes = slot.msgBytes;
    cqe.firstPacketTick = slot.firstPacketTick;
    cqe.completionTick = sim_.now();
    // The stateless protocol repeats the header on every block, so the
    // completing packet's connection id is the message's.
    cqe.connClient = conn_client;
    ++completions_;
    // The completion is known one counter update after the last
    // packet clears the pipeline.
    CompletionEvent *ev = completionPool_.acquire();
    ev->backend = this;
    ev->cqe = cqe;
    sim_.schedule(*ev, mem::counterUpdateLatency);
}

void
NiBackend::transmitMessage(proto::OpType op, proto::NodeId self,
                           proto::NodeId dst, std::uint32_t slot,
                           const std::vector<std::uint8_t> &payload)
{
    // First packet waits for the payload fetch from the memory
    // hierarchy; subsequent blocks stream at pipeline rate.
    const sim::Tick ready = sim_.now() + txSetupLatency;
    const std::uint32_t total =
        proto::blocksForBytes(static_cast<std::uint32_t>(payload.size()));
    packetsSent_ += total;
    if (fabric_.fusesTrains()) {
        // A train: every block's egress tick is known now, and the
        // blocks stream back to back, so the fabric takes them all
        // with the last block's tick as their departure.
        proto::makeTrain(txTrain_, op, self, dst, slot, payload);
        egressFreeAt_ = std::max(ready, egressFreeAt_) +
                        total * backendPacketOccupancy;
        fabric_.send(txTrain_, egressFreeAt_);
        return;
    }
    // Under a perturber each block is built straight into the pooled
    // event that injects it at its own tick.
    for (std::uint32_t b = 0; b < total; ++b) {
        const sim::Tick start = std::max(ready, egressFreeAt_);
        egressFreeAt_ = start + backendPacketOccupancy;
        InjectEvent *ev = injectPool_.acquire();
        ev->backend = this;
        proto::makePacket(ev->pkt, op, self, dst, slot, payload, b);
        sim_.scheduleAt(*ev, egressFreeAt_);
    }
}

} // namespace rpcvalet::ni
