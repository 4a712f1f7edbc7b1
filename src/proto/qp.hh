/**
 * @file
 * Completion-queue entries and the FIFO that holds them (Virtual
 * Interface Architecture style, §3.1).
 *
 * Each core owns a private QP: a Work Queue it writes commands into
 * and a Completion Queue the NI writes CQEs into. RPCValet adds the shared
 * CQ, a dispatcher-resident FIFO of fully received messages awaiting
 * assignment to a core (§4.2 step 7).
 */

#ifndef RPCVALET_PROTO_QP_HH
#define RPCVALET_PROTO_QP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "proto/packet.hh"
#include "sim/types.hh"

namespace rpcvalet::proto {

/**
 * Completion-queue entry: NI's notification to a core that a send
 * arrived. Carries the flat receive-buffer slot index (§4.2 step 8) —
 * the core reads payload directly from the receive buffer (zero copy).
 */
struct CompletionQueueEntry
{
    /** Flat receive-buffer slot holding the message. */
    std::uint32_t slotIndex = 0;
    /** Message origin. */
    NodeId srcNode = 0;
    /** Payload size in bytes. */
    std::uint32_t msgBytes = 0;
    /** Tick the message's first packet reached the NI (latency t0). */
    sim::Tick firstPacketTick = 0;
    /** Tick the message became fully received (reassembly done). */
    sim::Tick completionTick = 0;
    /** Tick the CQE landed in the serving core's private CQ. */
    sim::Tick deliveredTick = 0;
    /** Logical client (connection) of the message — the server NI's
     *  QP-cache key (see packet.hh). */
    std::uint32_t connClient = 0;
};

/**
 * FIFO behind the cores' private CQs, the dispatcher's shared CQ and
 * the client-side request queues. Entries live in a power-of-two
 * ring over one vector (head index plus count) that doubles when full
 * and never shrinks, so a queue in steady state allocates nothing.
 * Entry must be default-constructible and move-assignable; a popped
 * cell keeps its moved-from entry until the ring reuses it.
 */
template <typename Entry>
class Fifo
{
  public:
    void
    push(Entry e)
    {
        if (count_ == ring_.size())
            grow();
        ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(e);
        ++count_;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    const Entry &front() const { return ring_[head_]; }

    Entry
    pop()
    {
        Entry e = std::move(ring_[head_]);
        head_ = (head_ + 1) & (ring_.size() - 1);
        --count_;
        return e;
    }

  private:
    /** Double the ring (first use: 8 cells), unwrapping it in order. */
    void
    grow()
    {
        std::vector<Entry> bigger(ring_.empty() ? 8 : 2 * ring_.size());
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
        ring_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<Entry> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace rpcvalet::proto

#endif // RPCVALET_PROTO_QP_HH
