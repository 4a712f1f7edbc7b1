/**
 * @file
 * Public experiment API: one-stop entry points for running the
 * RPCValet system under a workload and for sweeping offered load into
 * tail-latency-vs-throughput curves (the data behind every evaluation
 * figure).
 *
 * A run is fully declarative: the dispatch mode, the dispatch policy,
 * the arrival process, and the workload are all selected by config
 * values (the latter three by registry-validated spec strings), so an
 * experiment is one config struct (see examples/quickstart.cc):
 *
 *   node::SystemParams sys;                    // Table 1 defaults
 *   sys.mode = ni::DispatchMode::SingleQueue;  // RPCValet
 *   sys.policy = "greedy";                     // any registered spec,
 *                                              // e.g. "jbsq:d=2"
 *   core::ExperimentConfig cfg;
 *   cfg.system = sys;
 *   cfg.arrivalRps = 10e6;
 *   cfg.arrival = "mmpp2:burst=0.1,ratio=10";  // default "poisson"
 *   cfg.workload = "masstree:scan_ratio=0.01"; // default "herd";
 *                                              // composites work too:
 *                                              // "mix:masstree-get=
 *                                              //  0.998,masstree-scan
 *                                              //  =0.002"
 *   core::RunStats stats = core::runExperiment(cfg);
 *   // stats.point        headline (latency-critical) tail metrics
 *   // stats.perClass     per-request-class throughput/p50/p99/p99.9
 *   //                    and SLO attainment (scans included)
 *
 * runExperiment(cfg) is the single experiment entry point: custom
 * applications plug in by registering a factory with the
 * app::WorkloadRegistry (see app/workload.hh) and naming its spec in
 * cfg.workload. The former runExperiment(cfg, app) / appFactory shims
 * that took caller-constructed app::RpcApplication instances are gone.
 *
 * Setting cfg.parallelDomains >= 1 executes the run as conservative
 * parallel DES: one sim::EventDomain per server node plus one for the
 * client side, synchronized in fabric-lookahead windows by a
 * core::WindowPool (see sim/domain.hh and net/fabric.hh).
 */

#ifndef RPCVALET_CORE_EXPERIMENT_HH
#define RPCVALET_CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/rpc_application.hh"
#include "app/workload.hh"
#include "cluster/cluster.hh"
#include "conn/conn.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "node/params.hh"
#include "stats/series.hh"

namespace rpcvalet::core {

/** Configuration of a single fixed-load run. */
struct ExperimentConfig
{
    /** System under test (Table 1 defaults). */
    node::SystemParams system{};
    /** Offered aggregate arrival rate, requests per second. */
    double arrivalRps = 1e6;
    /**
     * Interarrival process shaping that rate, looked up in the
     * net::ArrivalRegistry by spec string — e.g. "poisson" (default),
     * "mmpp2:burst=0.1,ratio=10", "lognormal:cv=4", "deterministic",
     * "ramp:from=0.5,to=1.5,over=1ms", "trace:file=gaps.txt".
     */
    net::ArrivalSpec arrival{};
    /**
     * Workload served by the node, looked up in the
     * app::WorkloadRegistry by spec string — e.g. "herd" (default),
     * "masstree:scan_ratio=0.01", "synthetic:dist=gev", or the
     * composite "mix:CLASS=WEIGHT,..." blending any registered
     * workloads with per-request class tags. Custom applications
     * register a factory (app::WorkloadRegistrar) and are selected
     * here like any built-in.
     */
    app::WorkloadSpec workload{};
    /**
     * Cluster topology: how many server nodes run behind the cluster
     * router, and the failover knobs (see cluster/cluster.hh). The
     * default — one server node, "direct" router — is the single-node
     * configuration. runExperiment(cfg) instantiates one application
     * + RpcNode per server (each with its own NI dispatch) and the
     * traffic generator addresses each request through the router —
     * two-level load balancing: router picks the node, the node's NI
     * picks the core.
     */
    cluster::ClusterConfig cluster{};
    /**
     * Fault injection: fault specs resolved through the
     * fault::FaultRegistry and armed before the run starts — e.g.
     * "crash:node=3,at=100us,recover_after=300us",
     * "packet-loss:p=0.01". Empty (the default) injects nothing and
     * keeps the run bit-identical to a fault-free build. Crash and
     * packet-loss faults require cluster.requestTimeout > 0 (fatal
     * before the run starts otherwise).
     */
    std::vector<fault::FaultSpec> faults;
    /**
     * Client-side recovery policy for timed-out requests: exponential
     * backoff against an attempt budget, optional hedged duplicate
     * sends (see fault::RetryPolicy). The defaults reproduce the
     * legacy unlimited-immediate-redispatch behavior bit-identically.
     * An active policy requires cluster.requestTimeout > 0.
     */
    fault::RetryPolicy retry{};
    /** Completions discarded before measurement starts. */
    std::uint64_t warmupRpcs = 20000;
    /** Completions measured after warmup. */
    std::uint64_t measuredRpcs = 200000;
    /**
     * 0 (default): the whole run executes on one event wheel — the
     * exact sequential kernel, bit-identical to previous releases.
     *
     * N >= 1: conservative parallel DES. The run decomposes into one
     * EventDomain per server node plus one for the client side, all
     * executing lookahead windows (window length = fabric link
     * latency) on a pool of N worker threads; cross-domain packets
     * wait in fabric mailboxes until the window ends and their
     * destination's worker drains them before the next. Results are
     * bit-identical for every N >= 1 — but not to the N == 0 global
     * wheel, whose same-tick cross-node interleaving and
     * per-completion (rather than per-barrier) measurement windows
     * parallel execution deliberately does not reproduce (see README
     * "The event model"). Chained (nested-RPC) workloads require
     * synchronous cross-node issue and are fatal with N >= 1.
     */
    unsigned parallelDomains = 0;
    /**
     * Connection management (src/conn/): a logical-client population
     * multiplexed over the emulated client nodes, gated by a
     * registered connection scheduler ("all", "grouped:size=,slice=")
     * under a finite server-side QP cache. The default (numClients ==
     * 0) names no population: the traffic generator derives one client
     * per emulated client node under "all", the QP caches stay
     * unbounded, and RunStats.conn stays empty.
     */
    conn::ConnConfig connections{};
    /**
     * fatal() when any reply fails application-level verification
     * (previously verifyFailures was silently reported in RunStats, so
     * a corrupted-reply regression could land unnoticed). On by
     * default — every test and bench inherits the check; opt out for
     * experiments that deliberately corrupt replies.
     */
    bool failOnVerifyError = true;
};

/** Mean/p99 pair for one latency component. */
struct ComponentStats
{
    double meanNs = 0.0;
    double p99Ns = 0.0;
};

/** Where an RPC's latency is spent (all RPCs, first packet ->
 *  replenish). Queueing shows up in `dispatch` (shared-CQ + credit
 *  wait, or software lock wait) and `queueWait` (private CQ). */
struct LatencyBreakdown
{
    ComponentStats reassembly;
    ComponentStats dispatch;
    ComponentStats queueWait;
    ComponentStats service;
};

/**
 * Measured statistics of one request class (see app::RequestClass):
 * the per-class breakdown behind the headline numbers. Non-critical
 * classes (e.g. Masstree scans) get full tail accounting here even
 * though they are excluded from `point`.
 */
struct ClassStats
{
    /** Class name ("get", "scan", "herd", ...). */
    std::string name;
    /** Whether the class counts toward the headline tail metric. */
    bool latencyCritical = true;
    /** Declared per-class p99 SLO bound, ns (0 = none declared). */
    double sloNs = 0.0;
    /** Post-warmup completions of this class. */
    std::uint64_t completions = 0;
    /** Per-class completion throughput over the measurement window. */
    double achievedRps = 0.0;
    /** Latency statistics over this class's post-warmup samples. */
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    double p999Ns = 0.0;
    /**
     * Fraction of this class's samples with latency <= sloNs (1.0
     * when the class declares no SLO or saw no samples).
     */
    double sloAttainment = 1.0;
};

/** Per-server-node statistics of a cluster run (imbalance and
 *  failover diagnostics; cluster totals live in RunStats itself). */
struct NodeStats
{
    /** Fabric node id of this server. */
    proto::NodeId nodeId = 0;
    /** Whether the node ended the run failed (fault injection). */
    bool failed = false;
    /** All completions on this node, warmup included. */
    std::uint64_t served = 0;
    /** Latency-critical completions on this node. */
    std::uint64_t criticalCompletions = 0;
    /** Post-warmup completion rate of this node. */
    double achievedRps = 0.0;
    /** Latency over this node's post-warmup RPCs (all classes). */
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    /** Post-warmup latency samples behind those percentiles. */
    std::uint64_t samples = 0;
    /** Per-core served counts on this node. */
    std::vector<std::uint64_t> perCoreServed;
};

/** Fault-injection and recovery accounting of one run. */
struct FaultStats
{
    /** Timed-out requests re-dispatched under the retry policy. */
    std::uint64_t retries = 0;
    /** Requests abandoned after exhausting the attempt budget. */
    std::uint64_t retryDrops = 0;
    /** Hedged duplicate sends issued. */
    std::uint64_t hedgesSent = 0;
    /** Hedge races the duplicate won. */
    std::uint64_t hedgesWon = 0;
    /** Replies from the losing half of a hedge race. */
    std::uint64_t duplicateReplies = 0;
    /** Packets dropped by packet-loss faults. */
    std::uint64_t packetsDropped = 0;
    /** Packets that paid packet-delay extra latency. */
    std::uint64_t packetsDelayed = 0;
    /** Reply payloads corrupted in flight. */
    std::uint64_t packetsCorrupted = 0;
    /** Corruptions the client's reply verification caught. */
    std::uint64_t corruptionsDetected = 0;
    /** Dead reply-slot occupants servers evicted after the reply-slot
     *  lease expired (their replies were lost to packet loss). */
    std::uint64_t replySlotEvictions = 0;
    /** The run's resolved fault activation log, in (time, declaration)
     *  order — deterministic across sequential and parallel runs. */
    std::vector<fault::Activation> activations;
    /** p99 of latency-critical RPCs completed inside / outside the
     *  union of timed fault windows (0 when no samples landed there).
     *  Only populated when timed faults declare windows. */
    double degradedP99Ns = 0.0;
    std::uint64_t degradedSamples = 0;
    double healthyP99Ns = 0.0;
    std::uint64_t healthySamples = 0;
};

/**
 * Connection-management accounting of one run (all zero/empty when
 * cfg.connections is inactive). Unlike RunStats.point, the client-side
 * admission counts (totals and per group), the mean deferred wait and
 * the client-observed p99s (active, inactive, per group) cover the
 * whole run, warmup included: the client side keeps no measurement
 * window.
 */
struct ConnStats
{
    /** Canonical scheduler spec ("all", "grouped:size=40,..."). */
    std::string scheduler;
    /** Logical-client population size. */
    std::uint32_t clients = 0;
    /** Connection groups the population partitioned into. */
    std::uint32_t groups = 0;
    /** Server-NI QP-cache capacity the run resolved to. */
    std::uint32_t qpCapacity = 0;
    /** Completed group context switches. */
    std::uint64_t groupSwitches = 0;
    /** Warmup pre-admissions that released a queued request. */
    std::uint64_t warmupHits = 0;
    /** Warmup pre-admissions that found nothing queued. */
    std::uint64_t warmupMisses = 0;
    /** End-of-epoch priority regroupings. */
    std::uint64_t regroups = 0;
    /** Requests admitted without deferral. */
    std::uint64_t admittedImmediate = 0;
    /** Requests deferred until their client's group became active. */
    std::uint64_t deferredTotal = 0;
    /** Mean admission wait of released deferred requests, ns. */
    double meanDeferredWaitNs = 0.0;
    /** Client-observed p99 of immediately admitted requests, ns. */
    double activeP99Ns = 0.0;
    /** Client-observed p99 of deferred requests (wait included), ns. */
    double inactiveP99Ns = 0.0;
    /** QP-cache hits/misses summed over the server nodes; each miss
     *  paid node::qpColdFetch before dispatch. */
    std::uint64_t qpHits = 0;
    std::uint64_t qpMisses = 0;
    /** Modeled server-side connection-state footprint if every client
     *  held live QP/slot state at once (bytes, whole cluster). */
    std::uint64_t qpFootprintAllBytes = 0;
    /** Footprint with only one group's connections live (bytes). */
    std::uint64_t qpFootprintGroupBytes = 0;
    /** Per-group-position admitted / deferred counts and client-
     *  observed p99, indexed by group position. */
    std::vector<std::uint64_t> perGroupAdmitted;
    std::vector<std::uint64_t> perGroupDeferred;
    std::vector<double> perGroupP99Ns;
};

/** Results of one run. */
struct RunStats
{
    /** Name of the workload served (app::RpcApplication::name()). */
    std::string workload;
    /** Canonical cluster router spec of the run (e.g. "direct"). */
    std::string router;
    /** Offered/achieved throughput and latency percentiles over
     *  latency-critical RPCs. */
    stats::LoadPoint point;
    /** Measured mean core occupancy per RPC (S-bar), ns. */
    double meanServiceNs = 0.0;
    /** All completions (including non-critical, e.g. scans). */
    std::uint64_t completions = 0;
    /** Latency-critical completions. */
    std::uint64_t criticalCompletions = 0;
    /** Reply-slot stalls at the cores (§4.2 flow control). */
    std::uint64_t replySlotStalls = 0;
    /** Arrivals deferred by per-source slot flow control. */
    std::uint64_t flowControlDeferrals = 0;
    /** Application-level reply verification failures (must be 0). */
    std::uint64_t verifyFailures = 0;
    /** Total simulated time, us. */
    double simulatedUs = 0.0;
    /** Simulator events executed by this run (kernel-determinism
     *  fingerprint: any change in event flow moves this count). */
    std::uint64_t executedEvents = 0;
    /** Parallel-engine cost: window barriers executed (0 on the
     *  sequential path). */
    std::uint64_t windows = 0;
    /** Parallel-engine cost: packets posted across a domain edge,
     *  i.e. exchanged through the fabric's mailboxes (0 on the
     *  sequential path). */
    std::uint64_t crossDomainMail = 0;
    /** Per-core served counts (load-balance diagnostics). */
    std::vector<std::uint64_t> perCoreServed;
    /** Peak busy receive slots of any node over the whole run,
     *  warmup included: the footprint a node must provision. */
    std::uint32_t recvSlotPeak = 0;
    /** Requests that used the rendezvous large-message path (§4.2). */
    std::uint64_t rendezvousRequests = 0;
    /** Preemption yields taken (Shinjuku-style extension). */
    std::uint64_t preemptionYields = 0;
    /** Latency decomposition along the RPC pipeline. */
    LatencyBreakdown breakdown;
    /** Per-request-class breakdown, indexed like the workload's
     *  requestClasses() (scans and other non-critical classes
     *  included). */
    std::vector<ClassStats> perClass;
    /** Per-server-node breakdown (one entry per cluster node; a
     *  single-node run has exactly one). */
    std::vector<NodeStats> perNode;
    /** Requests that exceeded the cluster request timeout. */
    std::uint64_t requestTimeouts = 0;
    /** Requests re-dispatched after a timeout or node mark-down. */
    std::uint64_t failoverReroutes = 0;
    /** Replies that arrived after their request had timed out. */
    std::uint64_t staleReplies = 0;
    /** Server nodes the health tracker held down at run end. */
    std::uint32_t nodesDown = 0;
    /** Nested RPCs issued on behalf of chained handlers. */
    std::uint64_t nestedRpcsSent = 0;
    /** Nested-RPC chain groups whose every member completed. */
    std::uint64_t chainsCompleted = 0;
    /** Fault-injection / recovery accounting (all zero and empty in
     *  fault-free runs). */
    FaultStats fault;
    /** Connection-management accounting (all zero and empty without a
     *  client population). */
    ConnStats conn;
};

/**
 * Run one fixed-load experiment to completion, instantiating the
 * workload from cfg.workload through the app::WorkloadRegistry. Every
 * shape runs on one path: cfg.cluster.numServerNodes servers (one
 * application + RpcNode each, router in front; one node is the
 * single-server setting), with per-node statistics merged into
 * cluster totals.
 */
RunStats runExperiment(const ExperimentConfig &cfg);

/** Configuration of a load sweep. */
struct SweepConfig
{
    /** Template for each run (arrivalRps is overridden per point). */
    ExperimentConfig base{};
    /** Offered rates to sweep, requests per second. Must be non-empty
     *  and strictly ascending (validated fatally by runSweep). */
    std::vector<double> arrivalRates;
    /** Series label (e.g. "1x16"). */
    std::string label;
    /**
     * Total thread budget for the sweep (1 = sequential). Must be in
     * [1, 1024] (validated fatally by runSweep). Point-level and
     * domain-level parallelism share this budget: with
     * base.parallelDomains = P, up to max(1, threads / max(1, P))
     * points run concurrently, each on P domain workers (see
     * core::pointConcurrency).
     */
    unsigned threads = 1;
};

/** A sweep's curve plus the full per-point stats. */
struct SweepResult
{
    stats::Series series;
    std::vector<RunStats> runs;
};

/** Run a load sweep (deterministic regardless of thread count). */
SweepResult runSweep(const SweepConfig &cfg);

/**
 * First-order capacity estimate: numCores / S-bar, with S-bar
 * approximated as mean processing time + per-RPC loop overhead, scaled
 * down by the workload's requestsPerArrival() (chained workloads serve
 * a whole fan-out tree per client arrival). Used by benches and the
 * scenario runner to place load grids.
 */
double estimateCapacityRps(const node::SystemParams &system,
                           const app::RpcApplication &app);

/** Spec-driven convenience: estimate capacity for a workload spec. */
double estimateCapacityRps(const node::SystemParams &system,
                           const app::WorkloadSpec &workload);

/** Convenience: n evenly spaced utilization points in [lo, hi]. */
std::vector<double> loadGrid(double lo, double hi, std::size_t n);

/**
 * Process-wide count of simulator events executed by every
 * runExperiment call so far (thread-safe; sweeps run threaded). The
 * bench harness divides it by wall-clock time to report kernel
 * events/sec in each bench's summary and --json output.
 */
std::uint64_t totalSimulatedEvents();

} // namespace rpcvalet::core

#endif // RPCVALET_CORE_EXPERIMENT_HH
