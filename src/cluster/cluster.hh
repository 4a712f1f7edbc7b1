/**
 * @file
 * Cluster-level experiment configuration.
 *
 * ClusterConfig is the topology axis of an experiment: how many server
 * nodes sit behind the router, how the keyspace shards over them, which
 * router balances across them, and the failover knobs (timeout
 * detection, health threshold, optional recovery). Node failures are
 * injected as faults ("crash:node=N,at=T", see fault/fault.hh). The
 * default configuration — one server, "direct" router — is the
 * paper's single-server setting, run on the same path as any cluster.
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

    /** Keyspace shards. 0 = one shard per server node. */
    std::uint32_t shards = 0;

    /** Consecutive request timeouts that mark a server down (>= 1). */
    std::uint32_t failThreshold = 3;

    /**
     * Client-side request timeout in ticks. 0 disables timeout
     * detection (and with it health-based failover): no sweep event is
     * ever scheduled. Crash and packet-loss faults require it.
     */
    sim::Tick requestTimeout = 0;

    /** Down time after which a failed node re-enters rotation
     *  (0 = stays down once marked). */
    sim::Tick recoveryAfter = 0;

    /**
     * Timeout-sweep period in ticks. 0 (the default) derives it from
     * the request timeout: max(1, requestTimeout / 4). Sub-µs timeout
     * experiments can pin it explicitly so detection latency is not
     * quantized by the sweep; setting it without a request timeout is
     * rejected (there is no sweep to tune).
     */
    sim::Tick sweepInterval = 0;

    /** Fatal (with the offending value) on inconsistent settings. */
    void validate() const;
};

} // namespace rpcvalet::cluster

#endif // RPCVALET_CLUSTER_CLUSTER_HH
