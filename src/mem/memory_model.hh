/**
 * @file
 * First-order memory-hierarchy latency model (Table 1).
 *
 * The NI has direct access to the node's memory hierarchy (§3.1); QP
 * entries are cacheable and transfer core<->NI via on-chip coherence,
 * while receive-buffer payload writes land in the LLC/DRAM. This model
 * supplies the latencies those interactions contribute to the RPC
 * timeline; it does not simulate tags/coherence state.
 */

#ifndef RPCVALET_MEM_MEMORY_MODEL_HH
#define RPCVALET_MEM_MEMORY_MODEL_HH

#include "sim/types.hh"

namespace rpcvalet::mem {

/** Latency parameters of the modeled memory hierarchy. */
struct MemoryModel
{
    /** L1 hit latency (Table 1: 3 cycles @ 2 GHz). */
    sim::Tick l1Latency = sim::nanoseconds(1.5);
    /** LLC hit latency incl. NUCA traversal (Table 1: 6 cycles + hops). */
    sim::Tick llcLatency = sim::nanoseconds(4.5);
    /** DRAM access latency (Table 1: 50 ns). */
    sim::Tick dramLatency = sim::nanoseconds(50.0);

    /**
     * Latency for the NI to update a receive-slot arrival counter via
     * fetch-and-increment (§4.4): an LLC access — counters are hot.
     */
    sim::Tick counterUpdateLatency() const { return llcLatency; }

    /**
     * Latency for a QP entry hop between core and NI frontend through
     * the coherent cache hierarchy (cacheable WQ/CQ, §4.1).
     */
    sim::Tick qpTransferLatency() const { return l1Latency; }

    /**
     * Latency for a core to read a freshly written receive-buffer
     * payload block (LLC hit; the NI wrote it on-chip moments ago).
     */
    sim::Tick payloadReadLatency() const { return llcLatency; }
};

} // namespace rpcvalet::mem

#endif // RPCVALET_MEM_MEMORY_MODEL_HH
