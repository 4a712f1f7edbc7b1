#include "core/experiment.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <utility>

#include "core/parallel.hh"
#include "fault/fault.hh"
#include "fault/packet_faults.hh"
#include "net/traffic_gen.hh"
#include "node/rpc_node.hh"
#include "sim/domain.hh"
#include "sim/logging.hh"
#include "stats/latency_recorder.hh"

namespace rpcvalet::core {

namespace {

/** Events executed across all runs in this process (bench perf feed). */
std::atomic<std::uint64_t> g_simulatedEvents{0};

using Sample = node::RpcNode::Sample;
/** The nodes' sample logs, in node index order. */
using Logs = std::vector<const std::vector<Sample> *>;

/** End-to-end latency of one logged RPC: first packet to replenish. */
sim::Tick
latency(const Sample &s)
{
    return s.replenishTick - s.firstPacketTick;
}

/** Keeps every logged RPC. */
bool
anyRpc(const Sample &)
{
    return true;
}

/**
 * Fill @p out with one derived sample sequence: @p value of every
 * logged RPC that @p keep selects, walking the logs in node order and
 * each log in completion order. That order is fixed by the run alone,
 * so means (summed in sample order) are bit-identical for any worker
 * count. @p out is the harvest's one scratch buffer, reserved up front
 * for the largest sequence, so filling it never reallocates.
 */
template <typename Keep, typename Value>
std::vector<sim::Tick> &
derive(std::vector<sim::Tick> &out, const Logs &logs, Keep keep,
       Value value)
{
    out.clear();
    for (const std::vector<Sample> *log : logs) {
        for (const Sample &s : *log) {
            if (keep(s))
                out.push_back(value(s));
        }
    }
    return out;
}

/** Mean/p99 of one breakdown component over every logged RPC. */
template <typename Value>
ComponentStats
component(std::vector<sim::Tick> &scratch, const Logs &logs, Value value)
{
    std::vector<sim::Tick> &samples = derive(scratch, logs, anyRpc, value);
    const double mean = stats::meanNs(samples);
    return ComponentStats{
        mean, stats::PercentileSelector(samples).percentileNs(99.0)};
}

/** Per-class summary from the class's derived @p samples (permuted). */
ClassStats
classStats(const app::RequestClass &info, std::vector<sim::Tick> &samples,
           double window_s)
{
    ClassStats cs;
    cs.name = info.name;
    cs.latencyCritical = info.latencyCritical;
    cs.sloNs = info.sloNs;
    cs.completions = samples.size();
    if (window_s > 0.0) {
        cs.achievedRps =
            static_cast<double>(cs.completions) / window_s;
    }
    cs.meanNs = stats::meanNs(samples);
    if (cs.sloNs > 0.0 && cs.completions > 0) {
        std::uint64_t within = 0;
        for (const sim::Tick t : samples) {
            if (sim::toNs(t) <= cs.sloNs)
                ++within;
        }
        cs.sloAttainment = static_cast<double>(within) /
                           static_cast<double>(cs.completions);
    }
    stats::PercentileSelector select(samples);
    cs.p50Ns = select.percentileNs(50.0);
    cs.p99Ns = select.percentileNs(99.0);
    cs.p999Ns = select.percentileNs(99.9);
    return cs;
}

/**
 * Connection-management harvest: scheduler stats, client-side
 * admission accounting, the client-observed p99s (overall by admission
 * kind and per group, from the generator's completion log), the
 * servers' summed QP-cache hit/miss counters, and the modeled
 * connection-state footprint comparison (every-client-live vs
 * one-group-live).
 */
void
harvestConnStats(const ExperimentConfig &cfg,
                 const net::TrafficGenerator &tg, std::uint64_t qp_hits,
                 std::uint64_t qp_misses, std::uint32_t num_servers,
                 RunStats &out)
{
    if (!cfg.connections.active())
        return;
    const conn::ConnScheduler *sched = tg.connScheduler();
    RV_ASSERT(sched != nullptr,
              "active connection config without a scheduler");
    const conn::ConnSchedStats ss = sched->stats();
    out.conn.scheduler = sched->name();
    out.conn.clients = cfg.connections.numClients;
    out.conn.groups = ss.groups;
    out.conn.qpCapacity = conn::effectiveQpCapacity(cfg.connections);
    out.conn.groupSwitches = ss.groupSwitches;
    out.conn.warmupHits = ss.warmupHits;
    out.conn.warmupMisses = ss.warmupMisses;
    out.conn.regroups = ss.regroups;
    // Every admission counts in exactly one group, so the totals are
    // the per-group sums.
    out.conn.perGroupAdmitted = tg.connPerGroupAdmitted();
    out.conn.perGroupDeferred = tg.connPerGroupDeferred();
    out.conn.admittedImmediate =
        std::accumulate(out.conn.perGroupAdmitted.begin(),
                        out.conn.perGroupAdmitted.end(), std::uint64_t{0});
    out.conn.deferredTotal =
        std::accumulate(out.conn.perGroupDeferred.begin(),
                        out.conn.perGroupDeferred.end(), std::uint64_t{0});
    out.conn.meanDeferredWaitNs =
        tg.connFlushed() > 0
            ? sim::toNs(tg.connDeferredWaitTicks()) /
                  static_cast<double>(tg.connFlushed())
            : 0.0;
    std::vector<sim::Tick> active;
    std::vector<sim::Tick> inactive;
    std::vector<std::vector<sim::Tick>> per_group(
        out.conn.perGroupAdmitted.size());
    for (const net::TrafficGenerator::ConnCompletion &c :
         tg.connCompletions()) {
        (c.deferred ? inactive : active).push_back(c.latency);
        per_group[c.group].push_back(c.latency);
    }
    out.conn.activeP99Ns =
        stats::PercentileSelector(active).percentileNs(99.0);
    out.conn.inactiveP99Ns =
        stats::PercentileSelector(inactive).percentileNs(99.0);
    out.conn.perGroupP99Ns.reserve(per_group.size());
    for (std::vector<sim::Tick> &samples : per_group) {
        out.conn.perGroupP99Ns.push_back(
            stats::PercentileSelector(samples).percentileNs(99.0));
    }
    out.conn.qpHits = qp_hits;
    out.conn.qpMisses = qp_misses;
    // Connection-state footprint model, per server: each live
    // connection pins its slot set's receive buffers plus QP metadata
    // (WQ/CQ descriptors, ~32 B + 64 B per slot). Grouping caps the
    // live set at one group — ScaleRPC's memory argument.
    const std::uint64_t perConn =
        static_cast<std::uint64_t>(cfg.system.domain.slotsPerNode) *
        (32 + cfg.system.domain.maxMsgBytes + 64);
    out.conn.qpFootprintAllBytes = static_cast<std::uint64_t>(
                                       cfg.connections.numClients) *
                                   perConn * num_servers;
    out.conn.qpFootprintGroupBytes =
        static_cast<std::uint64_t>(
            std::min(cfg.connections.numClients, out.conn.qpCapacity)) *
        perConn * num_servers;
}

void
checkVerifyFailures(const ExperimentConfig &cfg, const RunStats &out)
{
    if (cfg.failOnVerifyError && out.verifyFailures > 0) {
        sim::fatal(sim::strfmt(
            "workload '%s': %llu of %llu replies failed application-"
            "level verification (set ExperimentConfig.failOnVerifyError "
            "= false to tolerate corrupted replies)",
            out.workload.c_str(),
            static_cast<unsigned long long>(out.verifyFailures),
            static_cast<unsigned long long>(out.completions)));
    }
}

/** What a run loop measured, for the harvest. */
struct RunOutcome
{
    /** The measurement window, in simulated time. */
    sim::Tick start = 0;
    sim::Tick end = 0;
    /** Completions inside the window. */
    std::uint64_t measuredCompletions = 0;
    /** Events executed across every domain. */
    std::uint64_t executedEvents = 0;
    /** Simulated time when the run stopped. */
    sim::Tick stoppedAt = 0;
};

/**
 * Build a finished run's RunStats from its server nodes and the client
 * side. Every latency summary is derived here from the nodes' sample
 * logs, one summary at a time, into one scratch buffer that every
 * summary reuses: each takes its count, mean and SLO attainment in
 * sample order, then its percentiles by selection within the buffer.
 */
RunStats
harvest(const ExperimentConfig &cfg, const app::RpcApplication &app,
        const std::vector<std::unique_ptr<node::RpcNode>> &nodes,
        const net::TrafficGenerator &tg, const RunOutcome &run,
        const fault::Resolution &faultPlan,
        const fault::PacketFaults *packetFaults)
{
    const double window_s = run.end > run.start
                                ? sim::toSeconds(run.end - run.start)
                                : 0.0;

    RunStats out;
    out.workload = app.name();
    out.router = tg.routerName();
    out.point.offeredRps = cfg.arrivalRps;

    Logs logs;
    std::size_t logged = 0;
    for (const auto &n : nodes) {
        logs.push_back(&n->samples());
        logged += n->samples().size();
    }
    std::vector<sim::Tick> scratch;
    scratch.reserve(logged);

    std::uint64_t served_weight = 0;
    double service_weighted = 0.0;
    std::uint64_t qpHits = 0;
    std::uint64_t qpMisses = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const node::RpcNode &n = *nodes[i];
        std::vector<sim::Tick> &all =
            derive(scratch, Logs{logs[i]}, anyRpc, latency);
        NodeStats ns;
        ns.nodeId = cfg.system.nodeId + static_cast<proto::NodeId>(i);
        ns.failed = n.failed();
        ns.served = n.served();
        ns.criticalCompletions = n.servedCritical();
        ns.samples = all.size();
        if (window_s > 0.0)
            ns.achievedRps = static_cast<double>(ns.samples) / window_s;
        ns.meanNs = stats::meanNs(all);
        stats::PercentileSelector select(all);
        ns.p50Ns = select.percentileNs(50.0);
        ns.p99Ns = select.percentileNs(99.0);
        ns.perCoreServed = n.perCoreServed();

        service_weighted +=
            n.meanServiceTimeNs() * static_cast<double>(n.served());
        served_weight += n.served();
        out.completions += n.served();
        out.criticalCompletions += n.servedCritical();
        out.replySlotStalls += n.replySlotStalls();
        out.fault.replySlotEvictions += n.replySlotEvictions();
        out.preemptionYields += n.preemptionYields();
        out.recvSlotPeak = std::max(out.recvSlotPeak, n.recvSlotPeak());
        qpHits += n.qpCacheHits();
        qpMisses += n.qpCacheMisses();
        out.perCoreServed.insert(out.perCoreServed.end(),
                                 ns.perCoreServed.begin(),
                                 ns.perCoreServed.end());
        out.perNode.push_back(std::move(ns));
    }

    const auto critical = [](const Sample &s) { return s.latencyCritical; };
    {
        std::vector<sim::Tick> &point =
            derive(scratch, logs, critical, latency);
        out.point.samples = point.size();
        out.point.meanNs = stats::meanNs(point);
        stats::PercentileSelector select(point);
        out.point.p50Ns = select.percentileNs(50.0);
        out.point.p90Ns = select.percentileNs(90.0);
        out.point.p99Ns = select.percentileNs(99.0);
    }
    if (window_s > 0.0) {
        out.point.achievedRps =
            static_cast<double>(run.measuredCompletions) / window_s;
    }
    out.meanServiceNs =
        served_weight > 0
            ? service_weighted / static_cast<double>(served_weight)
            : 0.0;
    // Pipeline timestamps are monotone along each RPC by construction.
    out.breakdown.reassembly = component(scratch, logs, [](const Sample &s) {
        return s.completionTick - s.firstPacketTick;
    });
    out.breakdown.dispatch = component(scratch, logs, [](const Sample &s) {
        return s.deliveredTick - s.completionTick;
    });
    out.breakdown.queueWait = component(scratch, logs, [](const Sample &s) {
        return s.busyStart - s.deliveredTick;
    });
    out.breakdown.service = component(scratch, logs, [](const Sample &s) {
        return s.replenishTick - s.busyStart;
    });
    // Per-class accounting, including non-critical classes. A stray id
    // (e.g. a hand-built request against a workload that never
    // generates that class) is clamped into the declared table.
    const std::vector<app::RequestClass> classes = app.requestClasses();
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const auto inClass = [c, last = classes.size() - 1](
                                 const Sample &s) {
            return std::min<std::size_t>(s.classId, last) == c;
        };
        out.perClass.push_back(classStats(
            classes[c], derive(scratch, logs, inClass, latency),
            window_s));
    }
    out.simulatedUs = sim::toUs(run.stoppedAt);
    out.executedEvents = run.executedEvents;
    g_simulatedEvents.fetch_add(run.executedEvents,
                                std::memory_order_relaxed);

    out.flowControlDeferrals = tg.flowControlDeferrals();
    out.verifyFailures = tg.verificationFailures();
    out.rendezvousRequests = tg.rendezvousRequests();
    out.requestTimeouts = tg.requestTimeouts();
    out.failoverReroutes = tg.failoverReroutes();
    out.staleReplies = tg.staleReplies();
    out.nodesDown = tg.nodesDown();
    out.nestedRpcsSent = tg.nestedSent();
    out.chainsCompleted = tg.chainsCompleted();
    harvestConnStats(cfg, tg, qpHits, qpMisses,
                     static_cast<std::uint32_t>(nodes.size()), out);

    out.fault.retries = tg.retries();
    out.fault.retryDrops = tg.retryDrops();
    out.fault.hedgesSent = tg.hedgesSent();
    out.fault.hedgesWon = tg.hedgesWon();
    out.fault.duplicateReplies = tg.duplicateReplies();
    if (packetFaults != nullptr) {
        out.fault.packetsDropped = packetFaults->dropped();
        out.fault.packetsDelayed = packetFaults->delayed();
        out.fault.packetsCorrupted = packetFaults->corrupted();
    }
    out.fault.activations = faultPlan.timeline;
    // Degraded-tail split: critical RPCs by whether they completed
    // inside one of the timed faults' windows (few windows — linear
    // scan). Without timed faults both halves stay empty.
    const std::vector<std::pair<sim::Tick, sim::Tick>> windows =
        faultPlan.degradedWindows();
    if (!windows.empty()) {
        const auto inWindow = [&windows](const Sample &s) {
            for (const auto &[from, until] : windows) {
                if (s.replenishTick >= from && s.replenishTick < until)
                    return true;
            }
            return false;
        };
        std::vector<sim::Tick> &degraded = derive(
            scratch, logs,
            [&](const Sample &s) {
                return s.latencyCritical && inWindow(s);
            },
            latency);
        out.fault.degradedSamples = degraded.size();
        out.fault.degradedP99Ns =
            stats::PercentileSelector(degraded).percentileNs(99.0);
        std::vector<sim::Tick> &healthy = derive(
            scratch, logs,
            [&](const Sample &s) {
                return s.latencyCritical && !inWindow(s);
            },
            latency);
        out.fault.healthySamples = healthy.size();
        out.fault.healthyP99Ns =
            stats::PercentileSelector(healthy).percentileNs(99.0);
    }

    // Under injected corruption, failed verifications are the expected
    // signal (the client-side checksum caught the flipped byte), not a
    // simulator bug — report them as detections instead of dying.
    if (faultPlan.corruptsReplies())
        out.fault.corruptionsDetected = out.verifyFailures;
    else
        checkVerifyFailures(cfg, out);
    return out;
}

} // namespace

std::uint64_t
totalSimulatedEvents()
{
    return g_simulatedEvents.load(std::memory_order_relaxed);
}

/*
 * One run path for every shape: N >= 1 server nodes — each a full
 * RpcNode with its own NI dispatch — behind the traffic generator's
 * cluster router, every node attached to the fabric by an explicit
 * connect. One node behind the "direct" router is the paper's
 * single-server setting.
 *
 * With cfg.parallelDomains == 0 everything shares one event wheel and
 * the measurement window opens/closes on exact cluster-wide completion
 * counts — the sequential path.
 *
 * With cfg.parallelDomains >= 1 each server node owns an EventDomain
 * and the client side owns another; a WindowPool executes windows
 * one fabric latency long with barrier mailbox exchanges in between
 * (conservative parallel DES). Measurement is barrier-quantized: the
 * window opens at the first barrier where cluster completions reach
 * the warmup count and closes at the first barrier past the target —
 * deterministic for every worker count, though not identical to the
 * sequential path's per-completion windowing.
 */
RunStats
runExperiment(const ExperimentConfig &cfg)
{
    cfg.cluster.validate();
    cfg.retry.validate(cfg.cluster.requestTimeout);
    cfg.connections.validate();
    RV_ASSERT(cfg.arrivalRps > 0.0, "arrival rate must be positive");
    RV_ASSERT(cfg.measuredRpcs > 0, "need at least one measured RPC");
    const std::uint32_t numServers = cfg.cluster.numServerNodes;
    const bool par = cfg.parallelDomains > 0;

    // Resolve the fault list against the cluster shape before
    // anything is built, so a bad spec dies here with the full
    // registry listing, not mid-run. The resolved timeline depends
    // only on the specs and the shape — never on execution order.
    const fault::Resolution faultPlan = fault::resolveFaults(
        cfg.faults,
        fault::ResolveContext{numServers, cfg.system.numCores, par});
    if (cfg.cluster.requestTimeout == 0) {
        if (faultPlan.dropsPackets()) {
            sim::fatal(
                "packet-loss faults need a request timeout "
                "(cluster.timeout / [cluster] timeout): a dropped "
                "request or reply is only recovered by the client's "
                "timeout-driven retry, so without one the run cannot "
                "complete");
        }
        for (const fault::Activation &a : faultPlan.timeline) {
            if (a.kind != "crash")
                continue;
            sim::fatal(sim::strfmt(
                "fault '%s' needs a request timeout (cluster.timeout / "
                "[cluster] timeout): requests routed to a crashed node "
                "are lost, and only the client's timeout detects the "
                "node and reroutes them",
                a.spec.c_str()));
        }
    }

    // Domain layout: [0] the client/traffic side, [1 .. numServers]
    // one per server node. Sequential runs put everything on one
    // wheel.
    std::vector<std::unique_ptr<sim::EventDomain>> domains;
    if (par) {
        domains.push_back(
            std::make_unique<sim::EventDomain>(0, "client"));
        for (std::uint32_t i = 0; i < numServers; ++i) {
            domains.push_back(std::make_unique<sim::EventDomain>(
                i + 1,
                sim::strfmt("node%u", cfg.system.nodeId + i)));
        }
    } else {
        domains.push_back(std::make_unique<sim::EventDomain>(0, "main"));
    }
    std::vector<sim::EventDomain *> domainPtrs;
    domainPtrs.reserve(domains.size());
    for (auto &d : domains)
        domainPtrs.push_back(d.get());
    sim::EventDomain &clientSim = *domainPtrs.front();
    const auto serverSim = [&](std::uint32_t i) -> sim::EventDomain & {
        return par ? *domainPtrs[i + 1] : clientSim;
    };

    // One fabric over every domain; its link latency is the parallel
    // run's window.
    net::Fabric fabric(domainPtrs, cfg.system.fabricLatency);
    const sim::Tick window = fabric.latency();

    // Packet faults perturb every send at the fabric boundary. Per-
    // domain Rng lanes keep draw order deterministic under parallel
    // execution, and extra delay is additive-only, so the window
    // invariant holds with faults active.
    std::unique_ptr<fault::PacketFaults> packetFaults;
    if (!faultPlan.packet.empty()) {
        packetFaults = std::make_unique<fault::PacketFaults>(
            faultPlan.packet, static_cast<std::uint32_t>(domainPtrs.size()),
            cfg.system.seed, cfg.system.nodeId, numServers);
        fabric.setPerturber(packetFaults.get());
    }

    // Construction-time registry lookups: every spec (workload,
    // router, arrival inside the traffic generator) resolves here on
    // the calling thread, before any domain worker exists — no static
    // registry is consulted once the run is in flight.
    //
    // One application instance per server node (independent stores;
    // correctness across replicas comes from the workloads' canonical
    // value verification).
    std::vector<app::RpcApplicationPtr> apps;
    apps.reserve(numServers);
    std::vector<std::unique_ptr<node::RpcNode>> nodes;
    nodes.reserve(numServers);
    for (std::uint32_t i = 0; i < numServers; ++i) {
        node::SystemParams sys = cfg.system;
        sys.nodeId = cfg.system.nodeId + i;
        // Decorrelate per-node randomness (backend hash salts, policy
        // tie-breaks) without touching node 0's stream.
        if (i > 0)
            sys.seed = cfg.system.seed + 0x51D * i;
        // With loss faults a dropped reply starves its mirrored slot's
        // replenish forever; the lease (2x the client timeout, far
        // beyond any legitimate credit-return delay) lets the server
        // evict the dead occupant instead of spinning a core for the
        // rest of the run. Fault-free runs keep the plain wait.
        if (faultPlan.dropsPackets())
            sys.replySlotLease = 2 * cfg.cluster.requestTimeout;
        // Connection management: a client population makes the NI's
        // connection-context cache finite (sized for one group).
        if (cfg.connections.active()) {
            sys.qpCacheCapacity =
                conn::effectiveQpCapacity(cfg.connections);
            sys.qpColdFetch = cfg.connections.qpCold;
        }
        sys.validate();
        apps.push_back(
            app::WorkloadRegistry::instance().make(cfg.workload));
        nodes.push_back(std::make_unique<node::RpcNode>(
            serverSim(i), sys, *apps.back(), fabric));
        // Nodes log samples only inside the measurement window; the
        // completion hook / barrier loop below opens it cluster-wide.
        nodes.back()->setRecording(cfg.warmupRpcs == 0);
        if (par)
            fabric.assignNode(sys.nodeId, i + 1);
    }

    // The client side generates requests and verifies replies. A
    // sequential run hands it node 0's application (one thread drives
    // every node); a parallel run builds its own instance, because the
    // client domain runs on another worker thread.
    app::RpcApplicationPtr parallelClientApp;
    if (par) {
        parallelClientApp =
            app::WorkloadRegistry::instance().make(cfg.workload);
        if (parallelClientApp->requestsPerArrival() > 1.0) {
            sim::fatal(sim::strfmt(
                "workload '%s' issues nested RPC chains, which cross "
                "domains synchronously and cannot run under "
                "parallelDomains — use the sequential path "
                "(parallelDomains = 0)",
                parallelClientApp->name().c_str()));
        }
    }
    app::RpcApplication &clientApp =
        par ? *parallelClientApp : *apps.front();

    net::TrafficGenerator::Params tp;
    tp.arrivalRps = cfg.arrivalRps;
    tp.arrival = cfg.arrival;
    tp.targetNode = cfg.system.nodeId;
    tp.cluster = cfg.cluster;
    tp.clientTurnaround = cfg.clientTurnaround;
    tp.retry = cfg.retry;
    tp.connections = cfg.connections;
    tp.seed = cfg.system.seed;
    net::TrafficGenerator tg(clientSim, tp, cfg.system.domain, clientApp,
                             fabric);

    // Chained handlers (HandleResult.nested) issue their fan-out
    // through the generator's chain-group machinery. Wiring alone adds
    // no events; non-nesting workloads stay bit-identical. Parallel
    // runs leave it unwired (chained workloads fataled above; a stray
    // nested request then dies on the node's own missing-issuer check
    // instead of racing into the client domain).
    if (!par) {
        for (auto &n : nodes) {
            n->setNestedIssuer(
                [&tg](std::vector<std::vector<std::uint8_t>> requests,
                      std::function<void()> done) {
                    tg.issueNested(std::move(requests),
                                   std::move(done));
                });
        }
    }

    // Explicit topology wiring: every emulated client node gets its
    // own connect; nothing rides a default sink (a packet to a node
    // outside the topology is a hard fabric error). Client nodes stay
    // unassigned, which places them on domain 0.
    for (proto::NodeId n = 0; n < cfg.system.domain.numNodes; ++n) {
        if (n >= cfg.system.nodeId && n < cfg.system.nodeId + numServers)
            continue; // the server nodes connected themselves
        fabric.connect(n, [&tg](const proto::Packet &pkt) {
            tg.receivePacket(pkt);
        });
    }

    // Timed faults arm as plain events on each victim node's own
    // domain wheel, before the run starts.
    fault::FaultScheduler faultScheduler(
        faultPlan,
        fault::FaultScheduler::Hooks{
            [&nodes](std::uint32_t n, bool failed) {
                nodes[n]->setFailed(failed);
            },
            [&nodes](std::uint32_t n, sim::Tick until) {
                nodes[n]->stallNi(until);
            },
            [&nodes](std::uint32_t n, std::uint32_t core,
                     double factor) {
                nodes[n]->setCoreSlowdown(core, factor);
            }});
    faultScheduler.arm(
        [&](std::uint32_t i) -> sim::EventDomain & {
            return serverSim(i);
        });

    for (auto &n : nodes)
        n->start();
    tg.start();

    RunOutcome run;
    run.measuredCompletions = cfg.measuredRpcs;
    const std::uint64_t target = cfg.warmupRpcs + cfg.measuredRpcs;

    if (!par) {
        // Sequential: exact per-completion measurement window.
        std::uint64_t completed = 0;
        const auto hook = [&] {
            ++completed;
            if (completed == cfg.warmupRpcs) {
                run.start = clientSim.now();
                for (auto &n : nodes)
                    n->setRecording(true);
            }
            if (completed == target) {
                run.end = clientSim.now();
                tg.halt();
                clientSim.stop();
            }
        };
        for (auto &n : nodes)
            n->setCompletionHook(hook);
        clientSim.run();
        run.executedEvents = clientSim.executedEvents();
    } else {
        // Conservative PDES: execute latency-long windows in parallel,
        // exchange cross-domain mail at each barrier, and quantize
        // the measurement window to barriers (worker-count invariant).
        WindowPool pool(std::min<unsigned>(
            cfg.parallelDomains,
            static_cast<unsigned>(domainPtrs.size())));
        bool recording = cfg.warmupRpcs == 0;
        std::uint64_t opened_total = 0;
        std::uint64_t last_executed = 0;
        sim::Tick window_start = 0;
        for (;;) {
            const sim::Tick window_end = window_start + window;
            pool.run(domainPtrs, window_end - 1);
            // Barrier: every domain thread is quiescent from here on.
            std::uint64_t total = 0;
            for (auto &n : nodes)
                total += n->served();
            if (!recording && total >= cfg.warmupRpcs) {
                recording = true;
                run.start = window_end;
                opened_total = total;
                for (auto &n : nodes)
                    n->setRecording(true);
            }
            if (recording && total >= target) {
                run.end = window_end;
                run.measuredCompletions = total - opened_total;
                tg.halt();
                break;
            }
            fabric.exchangeWindow(window_end + window);
            std::uint64_t executed_now = 0;
            bool pending = false;
            for (sim::EventDomain *d : domainPtrs) {
                executed_now += d->executedEvents();
                pending = pending || d->pendingEvents() != 0;
            }
            if (executed_now == last_executed && !pending) {
                sim::fatal(sim::strfmt(
                    "parallel run drained (no pending events in any "
                    "of %zu domains) at t=%llu before reaching the "
                    "completion target %llu (reached %llu) — is the "
                    "offered load compatible with warmup+measured?",
                    domainPtrs.size(),
                    static_cast<unsigned long long>(window_end),
                    static_cast<unsigned long long>(target),
                    static_cast<unsigned long long>(total)));
            }
            last_executed = executed_now;
            window_start = window_end;
        }
        for (sim::EventDomain *d : domainPtrs)
            run.executedEvents += d->executedEvents();
    }
    run.stoppedAt = clientSim.now();

    return harvest(cfg, *apps.front(), nodes, tg, run, faultPlan,
                   packetFaults.get());
}

SweepResult
runSweep(const SweepConfig &cfg)
{
    if (cfg.threads < 1 || cfg.threads > 1024) {
        sim::fatal(sim::strfmt(
            "sweep config: threads must be in [1, 1024] (got %u)",
            cfg.threads));
    }
    if (cfg.arrivalRates.empty()) {
        sim::fatal("sweep config: arrivalRates is empty — a sweep "
                   "needs at least one load point");
    }
    for (std::size_t i = 1; i < cfg.arrivalRates.size(); ++i) {
        if (!(cfg.arrivalRates[i] > cfg.arrivalRates[i - 1])) {
            sim::fatal(sim::strfmt(
                "sweep config: arrivalRates must be strictly ascending "
                "(rate[%zu] = %g does not exceed rate[%zu] = %g)",
                i, cfg.arrivalRates[i], i - 1,
                cfg.arrivalRates[i - 1]));
        }
    }
    // Validate the workload name up front so a typo dies before any
    // point runs (and on the main thread, with the full registry
    // listing).
    (void)app::WorkloadRegistry::instance().make(cfg.base.workload);

    SweepResult result;
    result.series.label = cfg.label;
    result.runs.resize(cfg.arrivalRates.size());

    // Points are independent simulations; fan them out over the
    // shared worker pool. Each point builds its own app instances, so
    // results are identical regardless of thread count. The thread
    // budget is split with any per-point domain parallelism.
    runIndexedParallel(
        cfg.arrivalRates.size(),
        pointConcurrency(cfg.threads, cfg.base.parallelDomains),
        [&](std::size_t i) {
            ExperimentConfig point_cfg = cfg.base;
            point_cfg.arrivalRps = cfg.arrivalRates[i];
            // Decorrelate seeds across points without changing any
            // single point's behaviour when the grid changes.
            point_cfg.system.seed =
                cfg.base.system.seed + 0x1000 * (i + 1);
            result.runs[i] = runExperiment(point_cfg);
        });

    for (const RunStats &run : result.runs)
        result.series.points.push_back(run.point);
    return result;
}

double
estimateCapacityRps(const node::SystemParams &system,
                    const app::RpcApplication &app)
{
    const double sbar_ns =
        app.meanProcessingNs() + sim::toNs(node::costs::totalOverhead);
    // Chained workloads serve requestsPerArrival() RPCs per client
    // arrival, so a node's arrival capacity shrinks by that factor
    // (1.0 for ordinary workloads).
    return static_cast<double>(system.numCores) /
           (sbar_ns * 1e-9 * app.requestsPerArrival());
}

double
estimateCapacityRps(const node::SystemParams &system,
                    const app::WorkloadSpec &workload)
{
    const app::RpcApplicationPtr app =
        app::WorkloadRegistry::instance().make(workload);
    return estimateCapacityRps(system, *app);
}

std::vector<double>
loadGrid(double lo, double hi, std::size_t n)
{
    RV_ASSERT(n >= 2 && hi > lo && lo > 0.0, "bad load grid");
    std::vector<double> grid(n);
    for (std::size_t i = 0; i < n; ++i) {
        grid[i] = lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(n - 1);
    }
    return grid;
}

} // namespace rpcvalet::core
