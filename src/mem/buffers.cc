#include "mem/buffers.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rpcvalet::mem {

// ----------------------------------------------------------- SendBuffer

SendBuffer::SendBuffer(const proto::MessagingDomain &domain)
    : domain_(domain), slots_(domain.totalSlots())
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
    if (ss.valid)
        return false;
    ss.valid = true;
    ss.payload = std::move(payload);
    return true;
}

void
SendBuffer::release(proto::NodeId dst, std::uint32_t slot)
{
    SendSlot &ss = slotRef(dst, slot);
    RV_ASSERT(ss.valid, "releasing a free send slot");
    ss.valid = false;
    ss.payload.clear();
}

const std::vector<std::uint8_t> &
SendBuffer::payload(proto::NodeId dst, std::uint32_t slot) const
{
    const SendSlot &ss = slotRef(dst, slot);
    RV_ASSERT(ss.valid, "reading payload of a free send slot");
    return ss.payload;
}

// ----------------------------------------------------------- RecvBuffer

RecvBuffer::RecvBuffer(const proto::MessagingDomain &domain)
    : domain_(domain), slots_(domain.totalSlots())
{
}

Staged
RecvBuffer::admit(const proto::PacketHeader &hdr, RecvSlot &rs,
                  sim::Tick now)
{
    const bool send = hdr.op == proto::OpType::Send;
    RV_ASSERT(send || hdr.op == proto::OpType::ReadResponse,
              "recv buffer only accepts send packets and read responses");
    Staged staged;
    if (!send) {
        RV_ASSERT(rs.busy, "read response for a free slot");
        RV_ASSERT(rs.msgBytes == hdr.msgBytes,
                  "read response size mismatch");
    } else if (rs.arrivedBlocks == 0) {
        // First-received packet of the message. Senders only reuse a
        // slot after receiving its replenish, which follows release(),
        // so the slot must be free — a claimed slot here is a fresh
        // message racing the previous one.
        RV_ASSERT(!rs.busy, "slot reused before replenish (slot busy)");
        rs.totalBlocks = hdr.totalBlocks;
        rs.msgBytes = hdr.msgBytes;
        rs.firstPacketTick = now;
        staged.claims = true;
    } else {
        RV_ASSERT(rs.totalBlocks == hdr.totalBlocks,
                  "slot reused before replenish (totalBlocks mismatch)");
        RV_ASSERT(rs.msgBytes == hdr.msgBytes,
                  "slot reused before replenish (size mismatch)");
    }
    return staged;
}

Staged
RecvBuffer::stage(proto::Train &train, sim::Tick now)
{
    RecvSlot &rs =
        slots_[domain_.slotIndex(train.hdr.src, train.hdr.slot)];
    Staged staged = admit(train.hdr, rs, now);
    const std::uint32_t blocks = train.blocks();
    if (train.whole()) {
        // Block by block, the slot would end up holding exactly these
        // bytes; its old buffer goes back with the train.
        rs.payload.swap(train.bytes);
    } else {
        // A message's first-received packet (a send's, or a pull's
        // after beginRendezvous) lays out a zeroed message buffer.
        if (rs.arrivedBlocks == 0)
            rs.payload.assign(train.hdr.msgBytes, 0);
        // Copy the payload block into place (zero-copy on the real
        // machine; here the buffer is authoritative storage).
        proto::placeBlock(train, 0, rs.payload);
    }
    rs.arrivedBlocks += blocks;
    RV_ASSERT(rs.arrivedBlocks <= rs.totalBlocks,
              "more packets than blocks for slot");
    staged.completes = rs.arrivedBlocks == rs.totalBlocks;
    return staged;
}

void
RecvBuffer::claim(std::uint32_t index)
{
    RV_ASSERT(index < slots_.size(), "recv slot out of range");
    RecvSlot &rs = slots_[index];
    RV_ASSERT(!rs.busy, "slot reused before replenish (claimed twice)");
    rs.busy = true;
    ++busyCount_;
    busyPeak_ = std::max(busyPeak_, busyCount_);
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
    // stage() lays the buffer out: a whole response swaps in, and its
    // first packet zeroes a buffer of full_bytes.
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
