/**
 * @file
 * Send/receive messaging buffers (§4.2), with real byte storage.
 *
 * The simulator is functional as well as timed: request and reply
 * payload bytes travel through these buffers end to end, so
 * application-level tests can verify actual RPC results, not just
 * latencies.
 *
 * The NI sends a send slot's bytes as one proto::Train (or, under a
 * fabric perturber, one 64 B packet at a time). On the receive side
 * every arrival is a train too — a whole message or one packet of it —
 * staged as it enters the NI (RecvBuffer::stage); the slot claim and
 * the completion wait for the pipeline exit. A packet's block lands in
 * its slot with one bounded copy (proto::placeBlock), which rejects a
 * block index past the message's block count. A whole message's bytes
 * become the slot's by a buffer swap, and the slot's old buffer leaves
 * with the train for reuse, so payload buffers circulate between
 * senders, the fabric and the slots without being copied again.
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
 * increments per received packet (§4.2). A slot is busy (claimed) from
 * the moment its message's first-received packet leaves the NI
 * pipeline until the serving core's replenish is transmitted.
 */
struct RecvSlot
{
    bool busy = false;
    /** Packets of the current message (or pull) received so far,
     *  counted as they enter the NI: reaching totalBlocks marks the
     *  packet that completes the message. */
    std::uint32_t arrivedBlocks = 0;
    std::uint32_t totalBlocks = 0;
    std::uint32_t msgBytes = 0;
    sim::Tick firstPacketTick = 0;
    /** Holds no storage until the slot's first message; release()
     *  empties it but keeps the capacity for the next one. */
    std::vector<std::uint8_t> payload;
};

/** The NI pipeline-exit work one received packet carries (§4.4). */
struct Staged
{
    /** First-received packet of a send: claims the slot (claim()). */
    bool claims = false;
    /** Last-received packet: the message (or pull) is complete. */
    bool completes = false;
};

/** A node's receive buffer: N x S slots, addressed by flat index. */
class RecvBuffer
{
  public:
    explicit RecvBuffer(const proto::MessagingDomain &domain);

    /**
     * Receive-time half of a send or read-response arrival, @p train
     * being one packet or a whole message: check it against its slot,
     * put its bytes in place and bump the arrival counter by its
     * blocks. A send's first-received packet sets the message up
     * (size, firstPacketTick = @p now); the slot counts as busy only
     * once that packet leaves the NI pipeline (claim()). A packet's
     * block is copied into a message buffer that the message's
     * first-received packet zeroed; a whole message's
     * bytes are taken by swap (@p train comes back holding the slot's
     * old buffer), leaving the slot as staging each block would. A
     * read response lands in a slot that beginRendezvous() armed.
     * Returns the pipeline-exit work the arrival carries: a middle
     * block carries none, so its block and count are all there is to
     * it; a whole train carries block 0's claim and the last block's
     * completion, so on a slot that already counts blocks of its
     * message it dies, as the duplicate blocks would.
     */
    Staged stage(proto::Train &train, sim::Tick now);

    /**
     * Pipeline exit of a message's first-received send packet: the
     * slot is busy from here until release().
     */
    void claim(std::uint32_t index);

    /**
     * Rendezvous (§4.2): after a descriptor send completes, switch its
     * slot into pull mode — the message size becomes the full
     * transfer size and the arrival counter is re-armed for the
     * one-sided read's response blocks. The payload area is left to
     * stage(), which replaces every byte before the pull completes.
     * The slot keeps its firstPacketTick (latency clock started at the
     * descriptor).
     */
    void beginRendezvous(std::uint32_t index, std::uint32_t full_bytes);

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
    /** The checks of a packet with header @p hdr entering slot @p rs;
     *  a send's first-received packet sets the message up and claims. */
    static Staged admit(const proto::PacketHeader &hdr, RecvSlot &rs,
                        sim::Tick now);

    proto::MessagingDomain domain_;
    std::vector<RecvSlot> slots_;
    std::uint32_t busyCount_ = 0;
    std::uint32_t busyPeak_ = 0;
};

} // namespace rpcvalet::mem

#endif // RPCVALET_MEM_BUFFERS_HH
