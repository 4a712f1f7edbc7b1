/**
 * @file
 * Full-system configuration: Table 1's simulation parameters plus the
 * microbenchmark step costs of §5 and the RPCValet knobs of §4.3.
 */

#ifndef RPCVALET_NODE_PARAMS_HH
#define RPCVALET_NODE_PARAMS_HH

#include <cstdint>

#include "mem/memory_model.hh"
#include "ni/dispatch_policy.hh"
#include "proto/messaging.hh"
#include "sim/types.hh"
#include "sync/mcs_queue.hh"

namespace rpcvalet::node {

/**
 * Per-RPC core-side step costs of the §5 microbenchmark loop:
 * (i) poll for a CQE, (ii) execute the RPC's processing time X,
 * (iii) send a reply, (iv) replenish. The defaults are calibrated so
 * the HERD workload's measured mean service time lands at §6.1's
 * ~550 ns for a 330 ns mean processing time (i.e. ~220 ns of loop
 * overhead), pinned by tests/node/calibration_test.cc.
 */
struct CoreCosts
{
    /** Detecting a fresh CQE when the core was idle-polling. */
    sim::Tick pollDetect = sim::nanoseconds(15.0);
    /** Parsing the CQE and locating the receive slot. */
    sim::Tick cqeParse = sim::nanoseconds(10.0);
    /** Reading the request payload out of the receive buffer. */
    sim::Tick requestRead = sim::nanoseconds(45.0);
    /** Request unmarshalling and handler dispatch. */
    sim::Tick appDispatch = sim::nanoseconds(45.0);
    /** Building the reply message in the send buffer. */
    sim::Tick replyBuild = sim::nanoseconds(25.0);
    /** Posting the reply's send WQE. */
    sim::Tick sendPost = sim::nanoseconds(30.0);
    /** Posting the replenish WQE (end of latency measurement, §5). */
    sim::Tick replenishPost = sim::nanoseconds(30.0);
    /** Event-loop bookkeeping before the next poll. */
    sim::Tick loopOverhead = sim::nanoseconds(20.0);

    /** Total per-RPC overhead excluding processing time X. */
    sim::Tick
    totalOverhead() const
    {
        return pollDetect + cqeParse + requestRead + appDispatch +
               replyBuild + sendPost + replenishPost + loopOverhead;
    }
};

/** Everything needed to instantiate the modeled server. */
struct SystemParams
{
    /** Identity of the node under test within the messaging domain. */
    proto::NodeId nodeId = 0;
    /** Cores on the chip (Table 1: 16). */
    std::uint32_t numCores = 16;
    /** NI backends along the chip edge (one per mesh row). */
    std::uint32_t numBackends = 4;

    /** Core/NI clock (Table 1: 2 GHz). */
    double clockGhz = 2.0;
    /** Mesh geometry (Table 1: 2D mesh, 16 B links, 3 cycles/hop). */
    int meshRows = 4;
    int meshCols = 4;
    double hopCycles = 3.0;
    std::uint32_t linkBytes = 16;

    /** Messaging-domain shape (§5: 200-node cluster). */
    proto::MessagingDomain domain{};
    /** Memory-hierarchy latencies (Table 1). */
    mem::MemoryModel memory{};
    /** Microbenchmark loop costs (§5). */
    CoreCosts coreCosts{};

    /** NI backend pipeline occupancy per packet. */
    sim::Tick backendPacketOccupancy = sim::nanoseconds(3.0);
    /** Payload fetch before the first packet of an egress message. */
    sim::Tick txSetupLatency = sim::nanoseconds(4.5);
    /** Dispatcher decision pipeline occupancy (§4.3). */
    sim::Tick dispatcherDecision = sim::nanoseconds(4.0);

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

    /** MCS lock model for the software baseline (§6.2). */
    sync::McsParams mcs{};

    /**
     * Shinjuku-style preemption (extension; §7 suggests combining
     * RPCValet with preemptive scheduling for workloads mixing
     * hundred-ns RPCs with hundred-us ones). When non-zero, an RPC
     * whose processing exceeds the quantum yields: its continuation
     * re-enters the NI dispatcher's shared CQ and the core's credit
     * returns, letting queued short RPCs run. Only effective in
     * dispatcher modes (1x16, 4x4).
     */
    sim::Tick preemptionQuantum = 0;
    /** Context save/restore cost paid at every yield and resume. */
    sim::Tick preemptionOverhead = sim::nanoseconds(250.0);

    /** Retry interval when a reply's send slot is still in flight. */
    sim::Tick sendSlotRetry = sim::nanoseconds(20.0);

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
    /** Context-fetch penalty a QP-cache miss pays before dispatch. */
    sim::Tick qpColdFetch = sim::nanoseconds(1000.0);
    /**
     * Minimum gap between context-fetch starts: the NI's fetch engine
     * is pipelined but finite, so sustained misses above 1/qpFetchGap
     * queue behind each other (thrash costs throughput, not just
     * latency).
     */
    sim::Tick qpFetchGap = sim::nanoseconds(200.0);

    /** One-way inter-node fabric latency. */
    sim::Tick fabricLatency = sim::nanoseconds(100.0);

    /** Experiment seed (all component streams derive from it). */
    std::uint64_t seed = 1;

    /** Chip clock helper. */
    sim::Clock clock() const { return sim::Clock(clockGhz); }

    /** fatal() on inconsistent configuration. */
    void validate() const;
};

} // namespace rpcvalet::node

#endif // RPCVALET_NODE_PARAMS_HH
