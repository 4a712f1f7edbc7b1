#include "proto/packet.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace rpcvalet::proto {

std::string
opName(OpType op)
{
    switch (op) {
      case OpType::RemoteRead: return "remote_read";
      case OpType::RemoteWrite: return "remote_write";
      case OpType::Send: return "send";
      case OpType::Replenish: return "replenish";
      case OpType::ReadResponse: return "read_response";
    }
    sim::panic("unknown OpType");
}

std::uint32_t
blocksForBytes(std::uint32_t bytes)
{
    if (bytes == 0)
        return 1;
    return (bytes + cacheBlockBytes - 1) / cacheBlockBytes;
}

void
InlineBlock::assign(const std::uint8_t *src, std::size_t n)
{
    RV_ASSERT(n <= cacheBlockBytes, "block payload exceeds a cache block");
    if (n != 0)
        std::memcpy(bytes_, src, n);
    len_ = static_cast<std::uint8_t>(n);
}

void
InlineBlock::push_back(std::uint8_t byte)
{
    RV_ASSERT(len_ < cacheBlockBytes, "block payload exceeds a cache block");
    bytes_[len_++] = byte;
}

namespace {

/** The header of block @p block of a @p msg_bytes message: every field
 *  set, so a stale header may be reused. */
PacketHeader
blockHeader(OpType op, NodeId src, NodeId dst, std::uint32_t slot,
            std::uint32_t msg_bytes, std::uint32_t block)
{
    PacketHeader hdr;
    hdr.op = op;
    hdr.src = src;
    hdr.dst = dst;
    hdr.slot = slot;
    hdr.blockIndex = block;
    hdr.totalBlocks = blocksForBytes(msg_bytes);
    hdr.msgBytes = msg_bytes;
    return hdr;
}

/** Block @p index of a message: its bytes, viewed in place. */
struct Block
{
    std::uint32_t index;
    const std::uint8_t *data;
    std::size_t size;
};

/** Block @p block of the @p size bytes at @p msg, clamped to the
 *  message: a block past its end is empty. */
Block
messageBlock(const std::uint8_t *msg, std::size_t size, std::uint32_t block)
{
    const std::size_t lo =
        std::min(static_cast<std::size_t>(block) * cacheBlockBytes, size);
    const std::size_t hi = std::min<std::size_t>(lo + cacheBlockBytes, size);
    return {block, msg + lo, hi - lo};
}

/** The block packet @p i of @p train carries. */
Block
trainBlock(const Train &train, std::uint32_t i)
{
    RV_ASSERT(i < train.blocks(), "train packet index out of range");
    if (train.whole())
        return messageBlock(train.bytes.data(), train.bytes.size(), i);
    RV_ASSERT(train.bytes.size() <= cacheBlockBytes,
              "packet train holds more than a block");
    return {train.hdr.blockIndex, train.bytes.data(), train.bytes.size()};
}

/** Copy @p block of a @p total-block message to its offset in @p msg,
 *  dropping bytes past the buffer's end. */
void
placeAt(const Block &block, std::uint32_t total,
        std::vector<std::uint8_t> &msg)
{
    RV_ASSERT(block.index < total, "block index out of range");
    const std::size_t lo =
        static_cast<std::size_t>(block.index) * cacheBlockBytes;
    if (lo < msg.size())
        std::memcpy(msg.data() + lo, block.data,
                    std::min(block.size, msg.size() - lo));
}

} // namespace

void
makePacket(Packet &pkt, OpType op, NodeId src, NodeId dst,
           std::uint32_t slot, const std::vector<std::uint8_t> &payload,
           std::uint32_t block)
{
    pkt.hdr = blockHeader(op, src, dst, slot,
                          static_cast<std::uint32_t>(payload.size()), block);
    const Block b = messageBlock(payload.data(), payload.size(), block);
    pkt.payload.assign(b.data, b.size);
}

void
makeTrain(Train &train, OpType op, NodeId src, NodeId dst,
          std::uint32_t slot, const std::vector<std::uint8_t> &payload)
{
    train.hdr = blockHeader(op, src, dst, slot,
                            static_cast<std::uint32_t>(payload.size()), 0);
    train.bytes.assign(payload.begin(), payload.end());
}

void
trainPacket(const Train &train, std::uint32_t i, Packet &pkt)
{
    const Block b = trainBlock(train, i);
    pkt.hdr = train.hdr;
    pkt.hdr.blockIndex = b.index;
    pkt.payload.assign(b.data, b.size);
}

void
packetTrain(const Packet &pkt, Train &train)
{
    train.hdr = pkt.hdr;
    train.bytes.assign(pkt.payload.begin(), pkt.payload.end());
}

std::vector<Packet>
packetize(OpType op, NodeId src, NodeId dst, std::uint32_t slot,
          const std::vector<std::uint8_t> &payload)
{
    std::vector<Packet> packets(
        blocksForBytes(static_cast<std::uint32_t>(payload.size())));
    for (std::uint32_t b = 0; b < packets.size(); ++b)
        makePacket(packets[b], op, src, dst, slot, payload, b);
    return packets;
}

void
placeBlock(const Packet &pkt, std::vector<std::uint8_t> &msg)
{
    placeAt({pkt.hdr.blockIndex, pkt.payload.data(), pkt.payload.size()},
            pkt.hdr.totalBlocks, msg);
}

void
placeBlock(const Train &train, std::uint32_t i,
           std::vector<std::uint8_t> &msg)
{
    placeAt(trainBlock(train, i), train.hdr.totalBlocks, msg);
}

std::vector<std::uint8_t>
reassemble(const std::vector<Packet> &packets)
{
    RV_ASSERT(!packets.empty(), "cannot reassemble zero packets");
    const std::uint32_t total = packets.front().hdr.totalBlocks;
    const std::uint32_t msg_bytes = packets.front().hdr.msgBytes;
    RV_ASSERT(packets.size() == total, "packet count mismatch");

    std::vector<std::uint8_t> out(msg_bytes, 0);
    std::vector<bool> seen(total, false);
    for (const auto &pkt : packets) {
        RV_ASSERT(pkt.hdr.totalBlocks == total, "inconsistent totalBlocks");
        RV_ASSERT(pkt.hdr.msgBytes == msg_bytes, "inconsistent msgBytes");
        placeBlock(pkt, out);
        RV_ASSERT(!seen[pkt.hdr.blockIndex], "duplicate block");
        seen[pkt.hdr.blockIndex] = true;
    }
    for (bool s : seen)
        RV_ASSERT(s, "missing block during reassembly");
    return out;
}

} // namespace rpcvalet::proto
