/**
 * @file
 * Full-system configuration: the values an experiment varies — chip
 * geometry, messaging domain, queuing topology and policy, the
 * RPCValet knobs of §4.3. What the experiment layer derives per node
 * (its id, the reply-slot lease, the QP-cache bounds) reaches the node
 * as RpcNode constructor inputs instead (node/rpc_node.hh).
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
    /**
     * Mesh geometry (Table 1: a 4x4 2D mesh of 16 cores). The NI
     * backends sit on the chip edge, one per mesh row (§4.1), so the
     * mesh fixes both the core and the backend count.
     */
    int meshRows = 4;
    int meshCols = 4;

    /** Cores on the chip: one per mesh tile. */
    std::uint32_t
    numCores() const
    {
        return static_cast<std::uint32_t>(meshRows * meshCols);
    }
    /** NI backends along the chip edge: one per mesh row. */
    std::uint32_t
    numBackends() const
    {
        return static_cast<std::uint32_t>(meshRows);
    }

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

    /** One-way inter-node fabric latency. */
    sim::Tick fabricLatency = sim::nanoseconds(100.0);

    /** Experiment seed (all component streams derive from it). */
    std::uint64_t seed = 1;

    /** fatal() on inconsistent configuration. */
    void validate() const;
};

} // namespace rpcvalet::node

#endif // RPCVALET_NODE_PARAMS_HH
