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

void
makePacket(Packet &pkt, OpType op, NodeId src, NodeId dst,
           std::uint32_t slot, const std::vector<std::uint8_t> &payload,
           std::uint32_t block)
{
    const auto msg_bytes = static_cast<std::uint32_t>(payload.size());
    pkt.hdr = PacketHeader{};
    pkt.hdr.op = op;
    pkt.hdr.src = src;
    pkt.hdr.dst = dst;
    pkt.hdr.slot = slot;
    pkt.hdr.blockIndex = block;
    pkt.hdr.totalBlocks = blocksForBytes(msg_bytes);
    pkt.hdr.msgBytes = msg_bytes;
    // Clamped to the message, so a block past its end comes out empty.
    const std::size_t lo = std::min(
        static_cast<std::size_t>(block) * cacheBlockBytes, payload.size());
    const std::size_t hi = std::min<std::size_t>(lo + cacheBlockBytes,
                                                 payload.size());
    pkt.payload.assign(payload.data() + lo, hi - lo);
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
    RV_ASSERT(pkt.hdr.blockIndex < pkt.hdr.totalBlocks,
              "block index out of range");
    const std::size_t lo =
        static_cast<std::size_t>(pkt.hdr.blockIndex) * cacheBlockBytes;
    if (lo < msg.size()) {
        std::memcpy(msg.data() + lo, pkt.payload.data(),
                    std::min(pkt.payload.size(), msg.size() - lo));
    }
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
