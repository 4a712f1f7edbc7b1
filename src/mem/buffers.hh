/**
 * @file
 * Send/receive messaging buffers (§4.2), with real byte storage.
 *
 * The simulator is functional as well as timed: request and reply
 * payload bytes travel through these buffers end to end, so
 * application-level tests can verify actual RPC results, not just
 * latencies.
 *
 * The NI builds each outgoing packet from a send slot's bytes, one
 * 64 B block at a time (proto::makePacket); the packet carries that
 * block inline. On the receive side each arriving block lands in its
 * slot with one bounded copy (proto::placeBlock), which rejects a
 * block index past the message's block count.
 */

#ifndef RPCVALET_MEM_BUFFERS_HH
#define RPCVALET_MEM_BUFFERS_HH

#include <cstdint>
#include <vector>

#include "proto/messaging.hh"
#include "proto/packet.hh"
#include "sim/types.hh"

namespace rpcvalet::mem {

/**
 * Send-buffer slot bookkeeping (§4.2): valid bit, payload, size. The
 * paper stores a pointer to a core-private payload buffer; we inline
 * the bytes, which is equivalent for simulation purposes.
 */
struct SendSlot
{
    bool valid = false;
    std::vector<std::uint8_t> payload;
};

/**
 * A node's send buffer: N sets of S slots, one set per destination
 * node. A server's reply takes the slot that mirrors its request's
 * slot (HERD-style), so slots are always reserved by number.
 */
class SendBuffer
{
  public:
    explicit SendBuffer(const proto::MessagingDomain &domain);

    /** Whether a specific slot toward @p dst is still in flight. */
    bool slotBusy(proto::NodeId dst, std::uint32_t slot) const;

    /**
     * Reserve a specific slot toward @p dst (HERD-style slot-mirrored
     * replies: the response to request slot s goes out on slot s).
     * Returns false when that slot is still in flight (the payload is
     * not consumed in that case — probe with slotBusy() first to
     * avoid the move-and-restore).
     */
    bool acquireSpecific(proto::NodeId dst, std::uint32_t slot,
                         std::vector<std::uint8_t> payload);

    /**
     * Release a slot on replenish receipt (§4.2 step C: the NI resets
     * the slot's valid field).
     */
    void release(proto::NodeId dst, std::uint32_t slot);

    /** Payload view of an in-flight slot (for NI packet generation). */
    const std::vector<std::uint8_t> &
    payload(proto::NodeId dst, std::uint32_t slot) const;

  private:
    SendSlot &slotRef(proto::NodeId dst, std::uint32_t slot);
    const SendSlot &slotRef(proto::NodeId dst, std::uint32_t slot) const;

    proto::MessagingDomain domain_;
    std::vector<SendSlot> slots_; // N x S, dst-major
};

/**
 * Receive-buffer slot: payload bytes plus the arrival counter the NI
 * increments per received packet (§4.2). A slot is busy from first
 * packet until the serving core's replenish is transmitted.
 */
struct RecvSlot
{
    bool busy = false;
    std::uint32_t arrivedBlocks = 0;
    std::uint32_t totalBlocks = 0;
    std::uint32_t msgBytes = 0;
    sim::Tick firstPacketTick = 0;
    std::vector<std::uint8_t> payload;
};

/** A node's receive buffer: N x S slots, addressed by flat index. */
class RecvBuffer
{
  public:
    explicit RecvBuffer(const proto::MessagingDomain &domain);

    /**
     * Account one arrived packet: claims the slot on the first packet,
     * copies the payload block, bumps the counter. Returns true when
     * this packet completes the message (counter == totalBlocks).
     */
    bool packetArrived(const proto::Packet &pkt, sim::Tick now);

    /**
     * Rendezvous (§4.2): after a descriptor send completes, switch its
     * slot into pull mode — the payload area is resized to the full
     * transfer size and the arrival counter re-armed for the
     * one-sided read's response blocks. The slot keeps its
     * firstPacketTick (latency clock started at the descriptor).
     */
    void beginRendezvous(std::uint32_t index, std::uint32_t full_bytes);

    /**
     * Account one read-response block of a rendezvous pull. Returns
     * true when the pull is complete.
     */
    bool pullBlockArrived(const proto::Packet &pkt);

    /** Access a slot by flat index. */
    const RecvSlot &slot(std::uint32_t index) const;

    /** Release a slot after its replenish went out. */
    void release(std::uint32_t index);

    /** Number of currently busy slots. */
    std::uint32_t busyCount() const { return busyCount_; }

    /** Peak simultaneous busy slots. */
    std::uint32_t busyHighWatermark() const { return busyPeak_; }

    const proto::MessagingDomain &domain() const { return domain_; }

  private:
    proto::MessagingDomain domain_;
    std::vector<RecvSlot> slots_;
    std::uint32_t busyCount_ = 0;
    std::uint32_t busyPeak_ = 0;
};

} // namespace rpcvalet::mem

#endif // RPCVALET_MEM_BUFFERS_HH
