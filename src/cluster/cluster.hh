/**
 * @file
 * Cluster-level experiment configuration.
 *
 * ClusterConfig is the topology axis of an experiment: how many server
 * nodes sit behind the router, which router balances across them, and
 * the failover knobs (timeout detection, health threshold, optional
 * recovery). Node failures are injected as faults
 * ("crash:node=N,at=T", see fault/fault.hh). The default configuration
 * — one server, "direct" router — is the paper's single-server
 * setting, run on the same path as any cluster.
 */

#ifndef RPCVALET_CLUSTER_CLUSTER_HH
#define RPCVALET_CLUSTER_CLUSTER_HH

#include <cstdint>

#include "cluster/router.hh"
#include "sim/types.hh"

namespace rpcvalet::cluster {

/** Topology + routing + failover knobs of one experiment. */
struct ClusterConfig
{
    /** Server nodes behind the router (>= 1). */
    std::uint32_t numServerNodes = 1;

    /** Cluster router spec ("direct", "random", "rr", "shard",
     *  "bounded-load:c=,vnodes=", or an externally registered name). */
    RouterSpec router{};

    /** Consecutive request timeouts that mark a server down (>= 1). */
    std::uint32_t failThreshold = 3;

    /**
     * Client-side request timeout in ticks. 0 disables timeout
     * detection (and with it health-based failover): no sweep event is
     * ever scheduled. Otherwise the timeout sweep runs every
     * max(1, requestTimeout / 4) ticks. Crash and packet-loss faults
     * require it.
     */
    sim::Tick requestTimeout = 0;

    /** Down time after which a failed node re-enters rotation
     *  (0 = stays down once marked). */
    sim::Tick recoveryAfter = 0;

    /** Fatal (with the offending value) on inconsistent settings. */
    void validate() const;
};

} // namespace rpcvalet::cluster

#endif // RPCVALET_CLUSTER_CLUSTER_HH
