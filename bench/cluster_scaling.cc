/**
 * @file
 * Cluster scaling: N sharded server nodes behind the two-level
 * balancer (cluster router picks the node, each node's NI picks the
 * core).
 *
 * Sweeps cluster p99 vs offered load for every built-in routing
 * discipline on an N-node HERD cluster, reports per-node load
 * imbalance at the top load point, and injects a node failure to
 * measure the failover transient (detection via request timeouts,
 * rerouting to the survivors). The headline claim: consistent hashing
 * with bounded loads ("bounded-load:c=1.25") beats uniform-random
 * node selection on cluster p99 at high load, because random routing
 * lets transient per-node queue imbalance through while bounded-load
 * caps it.
 *
 * Pass --nodes=N to change the cluster size (default 4) and
 * --router=SPEC to narrow the router sweep to one spec.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    const auto args = bench::parseArgs(argc, argv);
    const std::uint32_t nodes = args.nodes > 0 ? args.nodes : 4;
    bench::printHeader(
        "Cluster scaling: router -> NI two-level balancing",
        sim::strfmt("%u HERD server nodes; every registered cluster "
                    "router; failover transient",
                    nodes));

    const app::WorkloadSpec workload =
        args.workload.empty() ? app::WorkloadSpec("herd")
                              : app::WorkloadSpec(args.workload);
    node::SystemParams sys;
    const double node_capacity = core::estimateCapacityRps(sys, workload);
    const double capacity = nodes * node_capacity;
    std::printf("\nestimated capacity: %.1f Mrps/node, %.1f Mrps "
                "cluster\n",
                node_capacity / 1e6, capacity / 1e6);

    // --router narrows the sweep to one spec; default sweeps the
    // built-in disciplines ("direct" is single-node only, skipped).
    std::vector<std::string> routers;
    if (!args.router.empty()) {
        routers.push_back(args.router);
    } else {
        routers = {"random", "rr", "shard", "bounded-load:c=1.25"};
    }

    core::ExperimentConfig base;
    base.workload = workload;
    base.cluster.numServerNodes = nodes;

    std::vector<core::SweepResult> results;
    for (const std::string &router : routers) {
        core::SweepConfig sweep =
            bench::makeSweep(args, base, router, capacity, 0.30, 0.85);
        sweep.base.cluster.router = cluster::RouterSpec::parse(router);
        results.push_back(core::runSweep(sweep));
        const std::string canonical =
            results.back().runs.front().router;

        std::printf("\n-- %s --\n", canonical.c_str());
        std::printf("%8s %14s %10s %10s %12s\n", "load", "tput(Mrps)",
                    "p50(us)", "p99(us)", "imbalance");
        for (const core::RunStats &r : results.back().runs) {
            std::uint64_t lo = ~std::uint64_t{0};
            std::uint64_t hi = 0;
            for (const core::NodeStats &ns : r.perNode) {
                lo = std::min(lo, ns.served);
                hi = std::max(hi, ns.served);
            }
            // Imbalance = most-loaded / least-loaded node by served
            // RPCs: 1.00 is a perfect spread.
            std::printf("%8.2f %14.3f %10.2f %10.2f %12.2f\n",
                        r.point.offeredRps / capacity,
                        r.point.achievedRps / 1e6, r.point.p50Ns / 1e3,
                        r.point.p99Ns / 1e3,
                        lo > 0 ? static_cast<double>(hi) /
                                     static_cast<double>(lo)
                               : 0.0);
        }
        bench::recordJsonSeries(results.back().series, capacity, 0.0);
    }

    if (args.router.empty()) {
        // Headline claim: bounded-load p99 <= random p99 at the top
        // load point (same offered load, same seed grid).
        const double random_p99 =
            results[0].runs.back().point.p99Ns;
        const double bounded_p99 =
            results[3].runs.back().point.p99Ns;
        const double ratio = random_p99 / bounded_p99;
        std::printf("\nrandom/bounded-load p99 @ 0.85 load: %.2fx\n",
                    ratio);
        bench::claim("bounded-load p99 beats random @ 0.85 load", 1.0,
                     std::min(ratio, 1.0), 0.0);
    }

    // --- failover transient: kill the last node mid-run ---
    std::printf("\n--- failover: node %u fails at 50 us "
                "(bounded-load, 0.5 load) ---\n",
                nodes - 1);
    core::ExperimentConfig cfg = base;
    cfg.system.seed = args.seed;
    cfg.warmupRpcs = args.warmup;
    cfg.measuredRpcs = args.rpcs;
    cfg.arrivalRps = 0.5 * capacity;
    cfg.cluster.router = cluster::RouterSpec::parse("bounded-load:c=1.25");
    bench::applyOverrides(args, cfg);
    const core::RunStats healthy = core::runExperiment(cfg);

    cfg.cluster.requestTimeout = sim::microseconds(30.0);
    cfg.cluster.failThreshold = 3;
    cfg.faults.emplace_back(
        sim::strfmt("crash:node=%u,at=50us", nodes - 1));
    cfg.failOnVerifyError = false; // report, don't die: the claim below
                                   // checks the count stays zero
    const core::RunStats failed = core::runExperiment(cfg);

    // Third row: the same node loss with 1% packet loss on top,
    // recovered by the fault subsystem's retry policy. The claim is
    // that the failover story survives an unreliable fabric — every
    // completion still verifies.
    core::ExperimentConfig lossy_cfg = cfg;
    lossy_cfg.faults.push_back(
        fault::FaultSpec("packet-loss:p=0.01"));
    lossy_cfg.retry.maxAttempts = 6;
    lossy_cfg.retry.baseBackoff = sim::microseconds(5.0);
    const core::RunStats lossy = core::runExperiment(lossy_cfg);

    std::printf("%24s %14s %14s %14s\n", "", "healthy", "node-loss",
                "+1% pkt-loss");
    std::printf("%24s %14.2f %14.2f %14.2f\n", "p99 (us)",
                healthy.point.p99Ns / 1e3, failed.point.p99Ns / 1e3,
                lossy.point.p99Ns / 1e3);
    std::printf("%24s %14llu %14llu %14llu\n", "completions",
                static_cast<unsigned long long>(healthy.completions),
                static_cast<unsigned long long>(failed.completions),
                static_cast<unsigned long long>(lossy.completions));
    std::printf("%24s %14u %14u %14u\n", "nodes down",
                healthy.nodesDown, failed.nodesDown, lossy.nodesDown);
    std::printf("%24s %14llu %14llu %14llu\n", "request timeouts",
                static_cast<unsigned long long>(healthy.requestTimeouts),
                static_cast<unsigned long long>(failed.requestTimeouts),
                static_cast<unsigned long long>(lossy.requestTimeouts));
    std::printf("%24s %14llu %14llu %14llu\n", "failover reroutes",
                static_cast<unsigned long long>(healthy.failoverReroutes),
                static_cast<unsigned long long>(failed.failoverReroutes),
                static_cast<unsigned long long>(lossy.failoverReroutes));
    std::printf("%24s %14llu %14llu %14llu\n", "stale replies",
                static_cast<unsigned long long>(healthy.staleReplies),
                static_cast<unsigned long long>(failed.staleReplies),
                static_cast<unsigned long long>(lossy.staleReplies));
    std::printf("%24s %14llu %14llu %14llu\n", "packets dropped",
                static_cast<unsigned long long>(
                    healthy.fault.packetsDropped),
                static_cast<unsigned long long>(
                    failed.fault.packetsDropped),
                static_cast<unsigned long long>(
                    lossy.fault.packetsDropped));
    std::printf("%24s %14llu %14llu %14llu\n", "retries",
                static_cast<unsigned long long>(healthy.fault.retries),
                static_cast<unsigned long long>(failed.fault.retries),
                static_cast<unsigned long long>(lossy.fault.retries));
    std::printf("\nper-node served after the loss:");
    for (const core::NodeStats &ns : failed.perNode) {
        std::printf(" node%u=%llu%s", ns.nodeId,
                    static_cast<unsigned long long>(ns.served),
                    ns.failed ? "(failed)" : "");
    }
    std::printf("\n");

    bench::claim("failover marks the victim down", 1.0,
                 static_cast<double>(failed.nodesDown), 0.0);
    bench::claim("failover reroutes timed-out requests", 1.0,
                 failed.failoverReroutes > 0 ? 1.0 : 0.0, 0.0);
    bench::claim("failover verify failures", 0.0,
                 static_cast<double>(failed.verifyFailures), 0.0);
    bench::claim("packet loss actually drops packets", 1.0,
                 lossy.fault.packetsDropped > 0 ? 1.0 : 0.0, 0.0);
    bench::claim("lossy failover verify failures", 0.0,
                 static_cast<double>(lossy.verifyFailures), 0.0);

    // --- kernel throughput: sequential vs parallel domains ---
    // The same high-load point, run once on the single event wheel
    // and then with the cluster's domains spread over 2 and 4 window
    // workers. A wider fabric latency (= PDES lookahead) keeps each
    // window large enough that the barrier amortizes; both sides of
    // the comparison use the identical config.
    std::printf("\n--- kernel throughput: sequential vs "
                "--parallel-domains ---\n");
    core::ExperimentConfig pcfg = base;
    pcfg.system.seed = args.seed;
    pcfg.warmupRpcs = args.warmup;
    pcfg.measuredRpcs = args.rpcs;
    pcfg.arrivalRps = 0.8 * capacity;
    pcfg.system.fabricLatency = sim::microseconds(5.0);
    pcfg.cluster.router = cluster::RouterSpec::parse("shard");
    bench::applyOverrides(args, pcfg);
    pcfg.parallelDomains = 0; // each timed run sets its own width

    const std::vector<unsigned> workerCounts{1, 2, 4};
    std::vector<double> eventsPerSec;
    for (const unsigned w : workerCounts) {
        core::ExperimentConfig run_cfg = pcfg;
        // 1 worker = the sequential single-wheel path, the baseline
        // the speedup is quoted against.
        run_cfg.parallelDomains = w == 1 ? 0 : w;
        const auto t0 = std::chrono::steady_clock::now();
        const core::RunStats st = core::runExperiment(run_cfg);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        eventsPerSec.push_back(
            wall > 0.0 ? static_cast<double>(st.executedEvents) / wall
                       : 0.0);
    }
    bench::recordParallelPerf(workerCounts, eventsPerSec);
    const unsigned hw = std::thread::hardware_concurrency();
    if (args.fast) {
        // Fast-mode runs are too short to time meaningfully.
    } else if (hw < 4) {
        // On fewer cores than workers the windows timeslice instead
        // of overlapping, so a wall-clock speedup claim would measure
        // the machine, not the kernel. The JSON series above still
        // records what this box did.
        std::printf("[perf] only %u hardware thread(s): skipping the "
                    "4-worker speedup claim\n",
                    hw);
    } else {
        bench::claim("4 domain workers >= 2x sequential events/s", 1.0,
                     eventsPerSec[0] > 0.0 &&
                             eventsPerSec[2] / eventsPerSec[0] >= 2.0
                         ? 1.0
                         : 0.0,
                     0.0);
    }
    return 0;
}
