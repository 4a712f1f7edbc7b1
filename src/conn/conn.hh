/**
 * @file
 * Connection management: the sixth spec axis.
 *
 * RPCValet's messaging domain hands every client a permanently live
 * set of NI/QP resources; nothing ever makes connection state scarce.
 * Real NIs cache a bounded number of connection contexts on-chip, and
 * once thousands of clients hold live connections the cache thrashes —
 * the problem ScaleRPC solves by time-multiplexing clients through the
 * server in connection groups. This subsystem is one of the six spec
 * axes built on sim/registry.hh:
 *
 *  - ConnSpec       "name:key=value,..." (sim::TypedSpec with conn
 *                   diagnostics, empty by default), e.g.
 *                   "grouped:size=40,slice=100us"
 *  - ConnScheduler  a registered connection scheduler; decides per
 *                   logical client whether it may issue a request now
 *                   and releases deferred clients when their turn comes
 *  - ConnConfig     the experiment-level knobs: logical-client
 *                   population size, scheduler spec and QP-cache
 *                   capacity (the cold-fetch penalty is the fixed
 *                   node::qpColdFetch)
 *  - ConnRegistry   process-wide name -> factory table; schedulers
 *                   self-register via ConnRegistrar, including from
 *                   outside src/
 *
 * Built-ins (src/conn/schedulers.cc):
 *
 *   all                                   every client connected, no
 *                                         gating; the scheduler of a
 *                                         run that names no population
 *   grouped:size=,slice=[,warmup=BOOL][,regroup=none|priority]
 *                                         ScaleRPC connection grouping:
 *                                         only the active group issues
 *                                         during a time slice, the next
 *                                         group warms up before the
 *                                         switch, drain-before-switch,
 *                                         optional priority regrouping
 *                                         by measured Pi = Ti/Si
 *
 * The client population is modeled in net::TrafficGenerator, whose
 * one issue path gives every request a logical client: clients
 * multiplex onto the emulated client nodes' existing per-(node,
 * server) slot pools, and each request carries its client id so the
 * server NI's QP cache (node::RpcNode) can account connection-context
 * hits and misses. A config that names no population
 * (ConnConfig.numClients == 0, the default) gets a derived one: one
 * client per emulated client node under `all`, with an unbounded QP
 * cache, so a uniform client draw is a uniform source-node draw and
 * nothing is deferred, timed or cached.
 */

#ifndef RPCVALET_CONN_CONN_HH
#define RPCVALET_CONN_CONN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/domain.hh"
#include "sim/registry.hh"

namespace rpcvalet::conn {

/** Counters every scheduler reports into RunStats.conn. */
struct ConnSchedStats
{
    /** Connection groups the population is partitioned into. */
    std::uint32_t groups = 1;
    /** Completed group context switches. */
    std::uint64_t groupSwitches = 0;
    /** Warmup pre-admissions that released a queued request. */
    std::uint64_t warmupHits = 0;
    /** Warmup pre-admissions that found nothing queued. */
    std::uint64_t warmupMisses = 0;
    /** End-of-epoch priority regroupings performed. */
    std::uint64_t regroups = 0;
};

/**
 * Interface every connection scheduler implements. The traffic
 * generator owns one instance per run and drives it from the client
 * domain (domain 0 in parallel runs), so scheduling decisions are
 * automatically deterministic across --parallel-domains settings.
 */
class ConnScheduler
{
  public:
    /**
     * Release hook into the traffic generator: dispatch up to @p limit
     * requests (0 = all) queued for @p client; returns how many were
     * actually released. Schedulers call it when a client becomes
     * admissible (group activation, warmup pre-admission).
     */
    using AdmitFn =
        std::function<std::uint32_t(std::uint32_t client,
                                    std::uint32_t limit)>;

    virtual ~ConnScheduler() = default;

    /** Canonical spec string of this instance (for reports). */
    virtual std::string name() const = 0;

    /**
     * Wire the scheduler to a run: population size, the client-side
     * event domain for slice timers, and the generator's release hook.
     * Called exactly once, before start().
     */
    virtual void bind(std::uint32_t numClients, sim::EventDomain &sim,
                      AdmitFn admit) = 0;

    /** Arm timers (called from TrafficGenerator::start). */
    virtual void start() {}

    /** Stop rescheduling timers (run is ending). */
    virtual void halt() {}

    /** Whether @p client may issue a request right now. A false return
     *  defers the request into the client's queue; the scheduler must
     *  eventually admit() it. */
    virtual bool mayIssue(std::uint32_t client) const = 0;

    /** A request of @p client entered the fabric. */
    virtual void onLaunched(std::uint32_t client) { (void)client; }

    /** A request of @p client completed with @p bytes of request
     *  payload (feeds the per-client Ti/Si perf counters). */
    virtual void
    onCompleted(std::uint32_t client, std::uint32_t bytes)
    {
        (void)client;
        (void)bytes;
    }

    /** A request of @p client left the outstanding set (completion,
     *  timeout, or hedge retirement) — the drain-before-switch
     *  signal. Called exactly once per onLaunched. */
    virtual void onRetired(std::uint32_t client) { (void)client; }

    /** Groups the population is partitioned into (1 = no grouping). */
    virtual std::uint32_t numGroups() const { return 1; }

    /** Current group of @p client (regrouping may move clients). */
    virtual std::uint32_t
    groupOf(std::uint32_t client) const
    {
        (void)client;
        return 0;
    }

    virtual ConnSchedStats stats() const { return {}; }
};

using ConnSchedulerPtr = std::unique_ptr<ConnScheduler>;

/** The connection-scheduler axis (see sim/registry.hh). */
struct ConnAxis
{
    static constexpr const char *label = "conn";
    /** No default: ConnConfig resolves an empty name to "all". */
    static constexpr const char *defaultName = "";
    static constexpr const char *noun = "conn scheduler";
    static constexpr const char *plural = "conn schedulers";
    using Factory =
        std::function<ConnSchedulerPtr(const sim::TypedSpec<ConnAxis> &)>;
    /** Defined in schedulers.cc, beside the built-in registrars. */
    static void linkBuiltins();
};

using ConnSpec = sim::TypedSpec<ConnAxis>;
using ConnRegistry = sim::Registry<ConnAxis>;
using ConnRegistrar = sim::Registrar<ConnAxis>;

/** Experiment-level connection-management configuration. */
struct ConnConfig
{
    /**
     * Logical clients multiplexed onto the emulated client nodes.
     * 0 (the default) names no population: the traffic generator
     * derives one client per emulated client node under `all`, and
     * the servers' QP caches stay unbounded.
     */
    std::uint32_t numClients = 0;

    /**
     * Server-NI connection-context (QP) cache capacity, in
     * connections. 0 derives it: the grouped scheduler's group size
     * (ScaleRPC sizes the physical pool for exactly one group), or 64
     * for ungrouped schedulers (an on-chip QP-cache ballpark). Only
     * consulted under a named population (active()).
     */
    std::uint32_t qpCapacity = 0;

    /** Scheduler spec; an empty name means "all". */
    ConnSpec scheduler{};

    /**
     * Whether the config names a population. Every run has logical
     * clients; this gates only what a named population adds: the
     * conn report (RunStats.conn) and the finite server QP cache.
     */
    bool active() const { return numClients > 0; }

    /** The scheduler a run uses: the spec with the empty-name default
     *  applied, or "all" when no population is named. */
    ConnSpec schedulerSpec() const;

    /**
     * Fatal on inconsistent settings; resolves the scheduler through
     * the registry so unknown names and bad parameters die before any
     * event runs.
     */
    void validate() const;
};

/**
 * Parse a --connections= value: a conn spec whose clients= and
 * qp_capacity= keys are peeled into the ConnConfig before the
 * remainder is validated through the registry, e.g.
 * "grouped:size=40,slice=100us,clients=2048". The keys read as the
 * scenario [connections] keys do: clients in [1, 2^24] (required) and
 * qp_capacity a 32-bit count. Any other key is the scheduler's, so a
 * key no scheduler accepts dies there.
 */
ConnConfig parseConnConfig(const std::string &text);

/**
 * The QP-cache capacity a config resolves to (explicit qpCapacity, or
 * the derivation documented on ConnConfig::qpCapacity).
 */
std::uint32_t effectiveQpCapacity(const ConnConfig &cfg);

} // namespace rpcvalet::conn

#endif // RPCVALET_CONN_CONN_HH
