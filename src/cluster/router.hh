/**
 * @file
 * Cluster-level request routing: the fourth spec axis.
 *
 * RPCValet balances µs-scale RPCs *within* one node's NI; a cluster
 * needs a second balancing level in front, deciding which server node
 * each request goes to. This subsystem makes that router a first-class
 * string-selectable component, completing the quintuple
 * --mode / --policy / --arrival / --workload / --router and mirroring
 * the policy/arrival/workload architecture:
 *
 *  - RouterSpec      "name:key=value,..." (sim::Spec with router
 *                    diagnostics), e.g. "bounded-load:c=1.25"
 *  - ClusterView     what a router may observe: per-server health and
 *                    outstanding request counts (implemented by the
 *                    traffic generator)
 *  - RouteContext    one decision's inputs — request key, request
 *                    class (so scans can route differently from gets),
 *                    client node, the view, the shard map, and a
 *                    router-private Rng stream
 *  - Router          picks a server index in [0, numServers)
 *  - RouterRegistry  process-wide name -> factory table; routers
 *                    self-register via RouterRegistrar, including from
 *                    outside src/ (see
 *                    examples/custom_router_playground.cc). Lookups
 *                    are runtime-only (from main onward), as with the
 *                    other registries: a make() call during another
 *                    translation unit's static initialization may run
 *                    before the built-ins have registered
 *
 * Built-ins (src/cluster/routers.cc): "direct" (always server 0; the
 * single-node default), "random", "rr", "shard"
 * (shard-affinity from the request key), and "bounded-load:c=,vnodes="
 * (consistent hashing with bounded loads). All built-ins skip nodes
 * the HealthTracker marks down and fail over to an up peer.
 */

#ifndef RPCVALET_CLUSTER_ROUTER_HH
#define RPCVALET_CLUSTER_ROUTER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topology.hh"
#include "sim/rng.hh"
#include "sim/spec.hh"

namespace rpcvalet::cluster {

/** A router selection: registry name plus parameters. */
struct RouterSpec : public sim::Spec
{
    /** Default router: "direct" (everything to server 0). */
    RouterSpec();

    /** Implicit: parse a spec string (fatal on malformed input). */
    RouterSpec(const char *text);
    RouterSpec(const std::string &text);

    /** Parse "name" or "name:k=v,k=v" (see sim::Spec::parse). */
    static RouterSpec parse(const std::string &text);
};

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
    /** Keyspace partition (shard-affinity routing). */
    const ShardMap &shards;
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

/** Process-wide name -> factory table for cluster routers. */
class RouterRegistry
{
  public:
    /** Builds a router instance from its (validated) spec. */
    using Factory = std::function<RouterPtr(const RouterSpec &)>;

    /** The process-wide registry (created on first use). */
    static RouterRegistry &instance();

    /** Register @p factory under @p name; duplicate names are fatal. */
    void add(const std::string &name, Factory factory);

    bool contains(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /** Sorted names joined with ", " (for error messages and help). */
    std::string namesJoined() const;

    /**
     * Instantiate the router @p spec names. An unregistered name is
     * fatal, with the message listing every registered name.
     */
    RouterPtr make(const RouterSpec &spec) const;

  private:
    RouterRegistry() = default;

    std::map<std::string, Factory> factories_;
};

/** Registers a factory at static-initialization time. */
struct RouterRegistrar
{
    RouterRegistrar(const std::string &name,
                    RouterRegistry::Factory factory);
};

} // namespace rpcvalet::cluster

#endif // RPCVALET_CLUSTER_ROUTER_HH
