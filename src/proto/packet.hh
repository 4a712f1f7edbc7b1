/**
 * @file
 * soNUMA wire-protocol definitions, extended for native messaging.
 *
 * soNUMA's stateless request-response protocol unrolls large transfers
 * into independent packets, each carrying one cache-block (64 B)
 * payload — the link-layer MTU of a fully integrated NI (§4.2). The
 * RPCValet extension adds two operations, send and replenish, plus a
 * total-message-size field in the network-layer header so the
 * destination NI can detect when all packets of a message have arrived
 * (§4.4).
 *
 * A Packet is the paper's packet: the header plus its one block,
 * stored inline. It owns no heap memory and is trivially copyable, so
 * senders build each block straight into the pooled event that carries
 * it (makePacket) and receivers place it with one bounded copy
 * (placeBlock). A packet owns its bytes rather than referencing the
 * sender's buffer: an in-flight fault may corrupt one packet without
 * touching the sender's copy, and a timed-out request's packets can
 * outlive the request that sent them.
 */

#ifndef RPCVALET_PROTO_PACKET_HH
#define RPCVALET_PROTO_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rpcvalet::proto {

/** Node identifier within the messaging domain. */
using NodeId = std::uint32_t;

/** Core identifier within a node. */
using CoreId = std::uint32_t;

/** Cache block size == link MTU (Table 1: 64-byte blocks). */
constexpr std::uint32_t cacheBlockBytes = 64;

/**
 * Sentinel logical-client id: the packet belongs to no modeled
 * connection (the default; see PacketHeader::connClient).
 */
constexpr std::uint32_t noConnClient = 0xFFFFFFFFu;

/** Protocol operations. Read/Write are the baseline one-sided ops. */
enum class OpType : std::uint8_t
{
    RemoteRead,
    RemoteWrite,
    Send,         ///< RPCValet native message (§4.2)
    Replenish,    ///< end-to-end flow-control credit return (§4.2)
    ReadResponse, ///< one-sided read data (rendezvous pulls, §4.2)
};

/** Name for logs and test diagnostics. */
std::string opName(OpType op);

/**
 * Network-layer packet header.
 *
 * RPCValet's extension over baseline soNUMA is the totalBlocks /
 * msgBytes pair: every packet of a multi-packet send carries the
 * message's full size, so any NI backend can decide completion locally
 * by comparing the receive-slot counter against totalBlocks (§4.4).
 */
struct PacketHeader
{
    OpType op = OpType::Send;
    NodeId src = 0;
    NodeId dst = 0;
    /** Slot index within the (src, dst) slot set (see MessagingDomain). */
    std::uint32_t slot = 0;
    /** Which cache block of the message this packet carries. */
    std::uint32_t blockIndex = 0;
    /** Total number of blocks in the message. */
    std::uint32_t totalBlocks = 1;
    /** Exact message payload size in bytes. */
    std::uint32_t msgBytes = 0;
    /**
     * Rendezvous (§4.2): a send whose payload exceeds maxMsgBytes is
     * announced by a one-block descriptor carrying rendezvous=true and
     * the full payload size; the destination NI then pulls the payload
     * with a one-sided read instead of receiving it inline.
     */
    bool rendezvous = false;
    std::uint32_t rendezvousBytes = 0;
    /**
     * Logical client (connection) this packet belongs to, set by the
     * traffic generator when a connection-management config is active
     * (src/conn/). In real RDMA this identity IS the queue-pair number
     * the transport header already carries, so modeling it adds no
     * wire bytes; the server NI keys its connection-context cache on
     * (src, connClient). noConnClient (the default) means the run has
     * no client-population model and every QP-cache path is skipped.
     */
    std::uint32_t connClient = noConnClient;
};

/**
 * One cache block of payload, stored in place: up to cacheBlockBytes
 * bytes plus a length. Reads like a small byte vector.
 */
class InlineBlock
{
  public:
    std::size_t size() const { return len_; }
    bool empty() const { return len_ == 0; }
    const std::uint8_t *data() const { return bytes_; }
    std::uint8_t &operator[](std::size_t i) { return bytes_[i]; }
    std::uint8_t operator[](std::size_t i) const { return bytes_[i]; }
    const std::uint8_t *begin() const { return bytes_; }
    const std::uint8_t *end() const { return bytes_ + len_; }

    /** Replace the contents with @p n bytes from @p src (n <= 64). */
    void assign(const std::uint8_t *src, std::size_t n);

    /** Append one byte; panics when the block is full. */
    void push_back(std::uint8_t byte);

  private:
    std::uint8_t bytes_[cacheBlockBytes] = {};
    std::uint8_t len_ = 0;
};

/** One wire packet: header + up to one cache block of payload. */
struct Packet
{
    PacketHeader hdr;
    InlineBlock payload;
};

/** Number of cache blocks needed for @p bytes (at least 1). */
std::uint32_t blocksForBytes(std::uint32_t bytes);

/**
 * Fill @p pkt as block @p block of the message @p payload sent from
 * @p src to slot @p slot at @p dst: the full header (stateless
 * protocol) and that block's bytes. Every header field is reset, so
 * @p pkt may hold a stale packet (e.g. a recycled pooled event's). A
 * block past the message's end gets an empty payload.
 */
void makePacket(Packet &pkt, OpType op, NodeId src, NodeId dst,
                std::uint32_t slot, const std::vector<std::uint8_t> &payload,
                std::uint32_t block);

/**
 * Unroll a message into its per-block packets, soNUMA-style: packet b
 * is makePacket(..., b). Senders on the simulation path build each
 * packet in place instead; this is the whole-message form for tests
 * and benchmarks.
 */
std::vector<Packet> packetize(OpType op, NodeId src, NodeId dst,
                              std::uint32_t slot,
                              const std::vector<std::uint8_t> &payload);

/**
 * Copy @p pkt's block to its offset in the message buffer @p msg with
 * one bounded copy: bytes past the buffer's end are dropped. Panics
 * when the header's block index is not below its block count — every
 * reassembly site goes through here.
 */
void placeBlock(const Packet &pkt, std::vector<std::uint8_t> &msg);

/**
 * Reassemble payload bytes from packets (test helper / functional
 * path). Packets may arrive in any order; missing blocks panic.
 */
std::vector<std::uint8_t>
reassemble(const std::vector<Packet> &packets);

} // namespace rpcvalet::proto

#endif // RPCVALET_PROTO_PACKET_HH
