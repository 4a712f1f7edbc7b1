#include "ni/backend.hh"

#include <algorithm>
#include <utility>

#include "mem/memory_model.hh"
#include "sim/logging.hh"

namespace rpcvalet::ni {

NiBackend::NiBackend(sim::EventDomain &sim, std::uint32_t id,
                     mem::RecvBuffer &recv, CompletionHandler on_complete,
                     ReplenishHandler on_replenish, Injector inject)
    : sim_(sim), id_(id), recv_(recv),
      onComplete_(std::move(on_complete)),
      onReplenish_(std::move(on_replenish)), inject_(std::move(inject))
{
    RV_ASSERT(onComplete_ != nullptr, "backend needs a completion hook");
    RV_ASSERT(onReplenish_ != nullptr, "backend needs a replenish hook");
    RV_ASSERT(inject_ != nullptr, "backend needs a fabric injector");
}

void
NiBackend::stallIngress(sim::Tick until)
{
    stallUntil_ = std::max(stallUntil_, until);
}

void
NiBackend::receivePacket(const proto::Packet &pkt)
{
    // Serialize packets through the ingress pipeline; an injected
    // stall (stallIngress) holds the pipeline's next free slot back.
    const sim::Tick arrival = sim_.now();
    const sim::Tick start =
        std::max({arrival, ingressFreeAt_, stallUntil_});
    ingressFreeAt_ = start + backendPacketOccupancy;
    ingressBusy_ += backendPacketOccupancy;
    ++packetsReceived_;
    IngressEvent *ev = ingressPool_.acquire();
    ev->backend = this;
    ev->pkt = pkt;
    ev->arrival = arrival;
    sim_.scheduleAt(*ev, ingressFreeAt_);
}

void
NiBackend::IngressEvent::process()
{
    // Process straight from the event, then recycle it: processing
    // that receives or forwards more packets draws other events.
    backend->processIngress(pkt, arrival);
    backend->ingressPool_.release(this);
}

void
NiBackend::InjectEvent::process()
{
    if (countOnFire)
        ++backend->packetsSent_;
    backend->inject_(pkt);
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
NiBackend::processIngress(const proto::Packet &pkt, sim::Tick arrival)
{
    switch (pkt.hdr.op) {
      case proto::OpType::Send: {
        // §4.4: write the payload block, fetch-and-increment the
        // arrival counter, compare against the header's total size.
        const bool complete = recv_.packetArrived(pkt, arrival);
        if (!complete)
            break;
        const std::uint32_t index =
            recv_.domain().slotIndex(pkt.hdr.src, pkt.hdr.slot);
        if (pkt.hdr.rendezvous) {
            // §4.2 rendezvous: the descriptor names the payload's
            // location and size; the NI pulls it with a one-sided
            // read rather than notifying a core yet.
            const std::uint32_t full = pkt.hdr.rendezvousBytes;
            recv_.beginRendezvous(index, full);
            proto::Packet read;
            read.hdr.op = proto::OpType::RemoteRead;
            read.hdr.src = pkt.hdr.dst; // us
            read.hdr.dst = pkt.hdr.src; // payload owner
            read.hdr.slot = pkt.hdr.slot;
            read.hdr.totalBlocks = 1;
            read.hdr.msgBytes = full;
            ++rendezvousPulls_;
            InjectEvent *ev = injectPool_.acquire();
            ev->backend = this;
            ev->pkt = std::move(read);
            ev->countOnFire = true;
            sim_.schedule(*ev, mem::counterUpdateLatency);
            break;
        }
        signalCompletion(index, pkt.hdr.src, pkt.hdr.connClient);
        break;
      }
      case proto::OpType::ReadResponse: {
        // Rendezvous pull data coming back; completes like a send
        // once every block has landed.
        const bool complete = recv_.pullBlockArrived(pkt);
        if (complete) {
            const std::uint32_t index =
                recv_.domain().slotIndex(pkt.hdr.src, pkt.hdr.slot);
            signalCompletion(index, pkt.hdr.src, pkt.hdr.connClient);
        }
        break;
      }
      case proto::OpType::Replenish:
        // §4.2 step C: reset the valid field of the named send slot.
        onReplenish_(pkt.hdr.src, pkt.hdr.slot);
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
    // hierarchy; subsequent blocks stream at pipeline rate. Each block
    // is built straight into the pooled event that carries it.
    const sim::Tick ready = sim_.now() + txSetupLatency;
    const std::uint32_t total =
        proto::blocksForBytes(static_cast<std::uint32_t>(payload.size()));
    for (std::uint32_t b = 0; b < total; ++b) {
        const sim::Tick start = std::max(ready, egressFreeAt_);
        egressFreeAt_ = start + backendPacketOccupancy;
        ++packetsSent_;
        InjectEvent *ev = injectPool_.acquire();
        ev->backend = this;
        proto::makePacket(ev->pkt, op, self, dst, slot, payload, b);
        ev->countOnFire = false;
        sim_.scheduleAt(*ev, egressFreeAt_);
    }
}

} // namespace rpcvalet::ni
