/**
 * @file
 * Full-system configuration: the values an experiment varies — chip
 * geometry, messaging domain, queuing topology and policy, the
 * RPCValet knobs of §4.3 — and the values the experiment layer derives.
 *
 * The paper fixes the rest of its machine, and so does the simulator:
 * each fixed value is a constexpr in the header of the lowest module
 * that reads it.
 *
 *  - Table 1 clock, mesh hop and link width: noc/mesh.hh (chipClock,
 *    hopCycles, linkBytes).
 *  - Table 1 L1/LLC/DRAM latencies: mem/memory_model.hh.
 *  - NI backend packet occupancy and egress payload fetch:
 *    ni/backend.hh (backendPacketOccupancy, txSetupLatency).
 *  - Dispatcher decision occupancy (§4.3): ni/dispatcher.hh
 *    (dispatcherDecision).
 *  - MCS lock costs of the software baseline (§6.2): sync/mcs_queue.hh.
 *  - §5 per-RPC loop costs (node::costs), the preemption context
 *    switch, the reply-slot retry and the QP fetch-engine gap:
 *    node/rpc_node.hh.
 */

#ifndef RPCVALET_NODE_PARAMS_HH
#define RPCVALET_NODE_PARAMS_HH

#include <cstdint>

#include "ni/dispatch_policy.hh"
#include "proto/messaging.hh"
#include "sim/types.hh"

namespace rpcvalet::node {

/** Everything needed to instantiate the modeled server. */
struct SystemParams
{
    /** Identity of the node under test within the messaging domain. */
    proto::NodeId nodeId = 0;
    /** Cores on the chip (Table 1: 16). */
    std::uint32_t numCores = 16;
    /** NI backends along the chip edge (one per mesh row). */
    std::uint32_t numBackends = 4;

    /** Mesh geometry (Table 1: 2D mesh). */
    int meshRows = 4;
    int meshCols = 4;

    /** Messaging-domain shape (§5: 200-node cluster). */
    proto::MessagingDomain domain{};

    /** Queuing topology (1x16 / 4x4 / 16x1 / software). */
    ni::DispatchMode mode = ni::DispatchMode::SingleQueue;
    /**
     * Core-selection policy for hardware dispatchers, looked up in the
     * ni::PolicyRegistry by spec string — e.g. "greedy" (default),
     * "rr", "pow2:d=3", "jbsq:d=2", "stale-jsq:staleness=50ns",
     * "delay-aware".
     */
    ni::PolicySpec policy{};
    /** Max outstanding RPCs per core (§4.3: 2). */
    std::uint32_t outstandingPerCore = 2;
    /** Which backend hosts the single-queue dispatcher (§4.3). */
    std::uint32_t dispatcherBackend = 0;

    /**
     * Shinjuku-style preemption (extension; §7 suggests combining
     * RPCValet with preemptive scheduling for workloads mixing
     * hundred-ns RPCs with hundred-us ones). When non-zero, an RPC
     * whose processing exceeds the quantum yields: its continuation
     * re-enters the NI dispatcher's shared CQ and the core's credit
     * returns, letting queued short RPCs run. Every yield and resume
     * pays preemptionOverhead (node/rpc_node.hh). Only effective in
     * dispatcher modes (1x16, 4x4).
     */
    sim::Tick preemptionQuantum = 0;

    /**
     * Give up waiting for a mirrored reply slot after this long and
     * evict its occupant (0 = wait forever, the lossless-fabric
     * default). On a lossless fabric a busy slot always drains —
     * the client's replenish is at most a round trip plus turnaround
     * away — but when fault injection can drop a reply packet, that
     * replenish never comes and the core spinning in attemptReply
     * would be lost for the rest of the run. The experiment layer
     * enables the lease (2x the client request timeout) only when a
     * packet-loss fault is active, so fault-free runs keep the exact
     * legacy path.
     */
    sim::Tick replySlotLease = 0;

    /**
     * Connection-context (QP) cache capacity of the NI, in
     * connections (0 = unlimited, the legacy default: no connection
     * state is ever scarce). When positive and a message carries a
     * logical client id (see proto::PacketHeader::connClient), the
     * node keys an LRU cache on (src node, client); a miss delays the
     * message's dispatch by qpColdFetch while the NI pulls the
     * context from memory. The connection-management layer
     * (src/conn/) sizes this for one ScaleRPC group.
     */
    std::uint32_t qpCacheCapacity = 0;
    /** Context-fetch penalty a QP-cache miss pays before dispatch;
     *  fetch starts are at least qpFetchGap apart (node/rpc_node.hh). */
    sim::Tick qpColdFetch = sim::nanoseconds(1000.0);

    /** One-way inter-node fabric latency. */
    sim::Tick fabricLatency = sim::nanoseconds(100.0);

    /** Experiment seed (all component streams derive from it). */
    std::uint64_t seed = 1;

    /** fatal() on inconsistent configuration. */
    void validate() const;
};

} // namespace rpcvalet::node

#endif // RPCVALET_NODE_PARAMS_HH
