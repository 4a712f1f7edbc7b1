#include "mem/buffers.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rpcvalet::mem {

// ----------------------------------------------------------- SendBuffer

SendBuffer::SendBuffer(const proto::MessagingDomain &domain)
    : domain_(domain), slots_(domain.totalSlots()),
      nextSlot_(domain.numNodes, 0), inFlight_(domain.numNodes, 0)
{
}

SendSlot &
SendBuffer::slotRef(proto::NodeId dst, std::uint32_t slot)
{
    return slots_[domain_.slotIndex(dst, slot)];
}

const SendSlot &
SendBuffer::slotRef(proto::NodeId dst, std::uint32_t slot) const
{
    return slots_[domain_.slotIndex(dst, slot)];
}

std::optional<std::uint32_t>
SendBuffer::acquire(proto::NodeId dst, std::vector<std::uint8_t> payload)
{
    RV_ASSERT(dst < domain_.numNodes, "destination outside domain");
    RV_ASSERT(payload.size() <= domain_.maxMsgBytes,
              "payload exceeds maxMsgBytes");
    const std::uint32_t s_count = domain_.slotsPerNode;
    for (std::uint32_t probe = 0; probe < s_count; ++probe) {
        const std::uint32_t slot = (nextSlot_[dst] + probe) % s_count;
        SendSlot &ss = slotRef(dst, slot);
        if (!ss.valid) {
            ss.valid = true;
            ss.payload = std::move(payload);
            nextSlot_[dst] = (slot + 1) % s_count;
            ++inFlight_[dst];
            return slot;
        }
    }
    ++acquireFailures_;
    return std::nullopt;
}

bool
SendBuffer::slotBusy(proto::NodeId dst, std::uint32_t slot) const
{
    return slotRef(dst, slot).valid;
}

bool
SendBuffer::acquireSpecific(proto::NodeId dst, std::uint32_t slot,
                            std::vector<std::uint8_t> payload)
{
    RV_ASSERT(dst < domain_.numNodes, "destination outside domain");
    RV_ASSERT(payload.size() <= domain_.maxMsgBytes,
              "payload exceeds maxMsgBytes");
    SendSlot &ss = slotRef(dst, slot);
    if (ss.valid) {
        ++acquireFailures_;
        return false;
    }
    ss.valid = true;
    ss.payload = std::move(payload);
    ++inFlight_[dst];
    return true;
}

void
SendBuffer::release(proto::NodeId dst, std::uint32_t slot)
{
    SendSlot &ss = slotRef(dst, slot);
    RV_ASSERT(ss.valid, "releasing a free send slot");
    ss.valid = false;
    ss.payload.clear();
    RV_ASSERT(inFlight_[dst] > 0, "send in-flight underflow");
    --inFlight_[dst];
}

const std::vector<std::uint8_t> &
SendBuffer::payload(proto::NodeId dst, std::uint32_t slot) const
{
    const SendSlot &ss = slotRef(dst, slot);
    RV_ASSERT(ss.valid, "reading payload of a free send slot");
    return ss.payload;
}

std::uint32_t
SendBuffer::inFlight(proto::NodeId dst) const
{
    RV_ASSERT(dst < domain_.numNodes, "destination outside domain");
    return inFlight_[dst];
}

// ----------------------------------------------------------- RecvBuffer

RecvBuffer::RecvBuffer(const proto::MessagingDomain &domain)
    : domain_(domain), slots_(domain.totalSlots())
{
    for (auto &s : slots_)
        s.payload.reserve(domain.maxMsgBytes);
}

bool
RecvBuffer::packetArrived(const proto::Packet &pkt, sim::Tick now)
{
    RV_ASSERT(pkt.hdr.op == proto::OpType::Send,
              "recv buffer only accepts send packets");
    const std::uint32_t index =
        domain_.slotIndex(pkt.hdr.src, pkt.hdr.slot);
    RecvSlot &rs = slots_[index];

    if (!rs.busy) {
        // First packet of the message claims the slot. Senders only
        // reuse a slot after receiving its replenish, so a busy slot
        // with a fresh first packet would be a protocol violation —
        // caught by the asserts below.
        rs.busy = true;
        rs.arrivedBlocks = 0;
        rs.totalBlocks = pkt.hdr.totalBlocks;
        rs.msgBytes = pkt.hdr.msgBytes;
        rs.firstPacketTick = now;
        rs.payload.assign(pkt.hdr.msgBytes, 0);
        ++busyCount_;
        busyPeak_ = std::max(busyPeak_, busyCount_);
    } else {
        RV_ASSERT(rs.totalBlocks == pkt.hdr.totalBlocks,
                  "slot reused before replenish (totalBlocks mismatch)");
        RV_ASSERT(rs.msgBytes == pkt.hdr.msgBytes,
                  "slot reused before replenish (size mismatch)");
    }

    // Copy the payload block into place (zero-copy on the real
    // machine; here the buffer is authoritative storage).
    proto::placeBlock(pkt, rs.payload);

    ++rs.arrivedBlocks;
    RV_ASSERT(rs.arrivedBlocks <= rs.totalBlocks,
              "more packets than blocks for slot");
    return rs.arrivedBlocks == rs.totalBlocks;
}

void
RecvBuffer::beginRendezvous(std::uint32_t index, std::uint32_t full_bytes)
{
    RV_ASSERT(index < slots_.size(), "recv slot out of range");
    RecvSlot &rs = slots_[index];
    RV_ASSERT(rs.busy, "rendezvous on a free slot");
    RV_ASSERT(rs.arrivedBlocks == rs.totalBlocks,
              "rendezvous before descriptor completion");
    rs.arrivedBlocks = 0;
    rs.totalBlocks = proto::blocksForBytes(full_bytes);
    rs.msgBytes = full_bytes;
    // Rendezvous payloads may exceed maxMsgBytes by design; the pulled
    // data lands in registered host memory, not the slot-sized area.
    rs.payload.assign(full_bytes, 0);
}

bool
RecvBuffer::pullBlockArrived(const proto::Packet &pkt)
{
    RV_ASSERT(pkt.hdr.op == proto::OpType::ReadResponse,
              "pull path only accepts read responses");
    const std::uint32_t index =
        domain_.slotIndex(pkt.hdr.src, pkt.hdr.slot);
    RecvSlot &rs = slots_[index];
    RV_ASSERT(rs.busy, "read response for a free slot");
    RV_ASSERT(rs.msgBytes == pkt.hdr.msgBytes,
              "read response size mismatch");

    proto::placeBlock(pkt, rs.payload);
    ++rs.arrivedBlocks;
    RV_ASSERT(rs.arrivedBlocks <= rs.totalBlocks,
              "more read responses than blocks");
    return rs.arrivedBlocks == rs.totalBlocks;
}

const RecvSlot &
RecvBuffer::slot(std::uint32_t index) const
{
    RV_ASSERT(index < slots_.size(), "recv slot out of range");
    return slots_[index];
}

void
RecvBuffer::release(std::uint32_t index)
{
    RV_ASSERT(index < slots_.size(), "recv slot out of range");
    RecvSlot &rs = slots_[index];
    RV_ASSERT(rs.busy, "releasing a free recv slot");
    rs.busy = false;
    rs.arrivedBlocks = 0;
    rs.totalBlocks = 0;
    rs.msgBytes = 0;
    rs.payload.clear();
    RV_ASSERT(busyCount_ > 0, "recv busy underflow");
    --busyCount_;
}

} // namespace rpcvalet::mem
