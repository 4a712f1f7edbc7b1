/**
 * @file
 * Cluster node health.
 *
 * The experiment core is a topology-driven cluster: N server nodes,
 * each running its own NI dispatch, fronted by a cluster-level
 * router. HealthTracker is the router-independent failover state: it
 * marks a node down after K *consecutive* failures (timeouts), with
 * optional time-based recovery — the failover model of the
 * rpc-load-balancer exemplar (SNIPPETS.md Snippet 1). Recovery is
 * probed, not assumed: the first post-recovery request is a canary,
 * and the node rejoins the rotation only when it succeeds.
 */

#ifndef RPCVALET_CLUSTER_TOPOLOGY_HH
#define RPCVALET_CLUSTER_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace rpcvalet::cluster {

/**
 * Per-node health with consecutive-failure mark-down.
 *
 * A node goes down after @p fail_threshold consecutive reported
 * failures (any success resets the streak). When a recovery interval
 * is configured, a down node becomes *probeable* after that much
 * simulated time: isUp() returns true just long enough for the router
 * to send one canary request (noteRouted() marks it in flight), and
 * the node rejoins the rotation only when that canary succeeds. A
 * failed canary puts the node back down and restarts the recovery
 * clock — a still-dead node can never re-absorb a full load share on
 * a timer alone.
 */
class HealthTracker
{
  public:
    /**
     * @param num_nodes       Tracked server nodes.
     * @param fail_threshold  Consecutive failures that mark a node
     *                        down (>= 1).
     * @param recovery_after  Down time after which a node is optimistically
     *                        considered up again (0 = stays down).
     */
    HealthTracker(std::uint32_t num_nodes, std::uint32_t fail_threshold,
                  sim::Tick recovery_after);

    /** A request to @p node completed: reset its failure streak. A
     *  probing node's canary success marks it healthy again. */
    void reportSuccess(std::uint32_t node);

    /**
     * A request was actually routed to @p node. For a probing node
     * this is the canary going out: isUp() returns false until the
     * probe resolves (success or failure), so exactly one request at
     * a time tests a recovering node. No-op for healthy nodes.
     */
    void noteRouted(std::uint32_t node);

    /**
     * A request to @p node failed (timeout). Returns true when this
     * report transitioned the node from up to down.
     */
    bool reportFailure(std::uint32_t node, sim::Tick now);

    /** Whether @p node is up at @p now (applies optional recovery). */
    bool isUp(std::uint32_t node, sim::Tick now) const;

    /** Nodes currently down at @p now. */
    std::uint32_t nodesDown(sim::Tick now) const;

    /** Total up -> down transitions observed. */
    std::uint64_t downTransitions() const { return downTransitions_; }

  private:
    struct State
    {
        std::uint32_t consecutiveFailures = 0;
        bool down = false;
        /** Recovery elapsed; the node may receive one canary. */
        bool probing = false;
        /** The canary request is out, awaiting its verdict. */
        bool canaryInFlight = false;
        sim::Tick downSince = 0;
    };

    /** Recovery is applied lazily on isUp(); mutable keeps the check
     *  const for read-only callers (routers). */
    mutable std::vector<State> nodes_;
    std::uint32_t failThreshold_;
    sim::Tick recoveryAfter_;
    std::uint64_t downTransitions_ = 0;
};

} // namespace rpcvalet::cluster

#endif // RPCVALET_CLUSTER_TOPOLOGY_HH
