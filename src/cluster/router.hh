/**
 * @file
 * Cluster-level request routing: the fourth spec axis.
 *
 * RPCValet balances µs-scale RPCs *within* one node's NI; a cluster
 * needs a second balancing level in front, deciding which server node
 * each request goes to. This subsystem makes that router a first-class
 * string-selectable component, completing the quintuple
 * --mode / --policy / --arrival / --workload / --router, and one of the
 * six spec axes built on sim/registry.hh:
 *
 *  - RouterSpec      "name:key=value,..." (sim::TypedSpec with router
 *                    diagnostics), e.g. "bounded-load:c=1.25"
 *  - ClusterView     what a router may observe: per-server health and
 *                    outstanding request counts (implemented by the
 *                    traffic generator)
 *  - RouteContext    one decision's inputs — request key, request
 *                    class (so scans can route differently from gets),
 *                    client node, the view, and a router-private Rng
 *                    stream
 *  - Router          picks a server index in [0, numServers)
 *  - RouterRegistry  process-wide name -> factory table; routers
 *                    self-register via RouterRegistrar, including from
 *                    outside src/ (see
 *                    examples/custom_router_playground.cc)
 *
 * Built-ins (src/cluster/routers.cc): "direct" (always server 0; the
 * single-node default), "random", "rr", "shard" (key affinity: the
 * key's hash modulo the server count), and "bounded-load:c=,vnodes="
 * (consistent hashing with bounded loads). All built-ins skip nodes
 * the HealthTracker marks down and fail over to an up peer.
 */

#ifndef RPCVALET_CLUSTER_ROUTER_HH
#define RPCVALET_CLUSTER_ROUTER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/registry.hh"
#include "sim/rng.hh"

namespace rpcvalet::cluster {

/**
 * Read-only cluster state a router may consult. Server indices are
 * cluster-local (0..numServers-1), not fabric node ids.
 */
class ClusterView
{
  public:
    virtual ~ClusterView() = default;

    /** Server nodes behind the router. */
    virtual std::uint32_t numServers() const = 0;

    /** Whether @p server is currently considered healthy. */
    virtual bool isUp(std::uint32_t server) const = 0;

    /** Requests currently in flight toward @p server. */
    virtual std::uint64_t outstanding(std::uint32_t server) const = 0;

    /** Servers currently up. */
    std::uint32_t upCount() const;

    /** In-flight requests across all servers. */
    std::uint64_t totalOutstanding() const;
};

/** Inputs of one routing decision. */
struct RouteContext
{
    /** Request key (read off the wire bytes; 0 if the request has no
     *  key field). */
    std::uint64_t key = 0;
    /** Request-class id (wire class byte), for class-aware routing. */
    std::uint8_t classId = 0;
    /** Client (source) node id within the messaging domain. */
    std::uint32_t client = 0;
    /** Live cluster state. */
    const ClusterView &view;
    /** Router-private random stream (decorrelated from arrival/client
     *  streams, so routing randomness never perturbs them). */
    sim::Rng &rng;
};

/** Interface every cluster router implements. */
class Router
{
  public:
    virtual ~Router() = default;

    /** Pick the serving node's index in [0, ctx.view.numServers()). */
    virtual std::uint32_t route(const RouteContext &ctx) = 0;

    /** Canonical spec string of this instance (for reports). */
    virtual std::string name() const = 0;
};

using RouterPtr = std::unique_ptr<Router>;

/** The cluster-router axis (see sim/registry.hh). */
struct RouterAxis
{
    static constexpr const char *label = "router";
    /** Everything to server 0 (the single-node default). */
    static constexpr const char *defaultName = "direct";
    static constexpr const char *noun = "cluster router";
    static constexpr const char *plural = "routers";
    using Factory =
        std::function<RouterPtr(const sim::TypedSpec<RouterAxis> &)>;
    /** Defined in routers.cc, beside the built-in registrars. */
    static void linkBuiltins();
};

using RouterSpec = sim::TypedSpec<RouterAxis>;
using RouterRegistry = sim::Registry<RouterAxis>;
using RouterRegistrar = sim::Registrar<RouterAxis>;

} // namespace rpcvalet::cluster

#endif // RPCVALET_CLUSTER_ROUTER_HH
