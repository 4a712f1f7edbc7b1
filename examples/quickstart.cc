/**
 * @file
 * Quickstart: simulate one RPCValet server under a HERD-like
 * key-value workload and print its latency profile.
 *
 *   $ ./quickstart [arrival_mrps] [workload_spec]
 *
 * Walks through the three steps every user of the library takes:
 * configure the system (Table 1 defaults), pick a workload by spec
 * string, run an experiment. The whole run is declarative — mode,
 * policy, arrival, and workload are all config values.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;

    // 1. System: a 16-core chip with integrated NIs, RPCValet (1x16)
    //    dispatch. Every Table 1 parameter is overridable.
    node::SystemParams system;
    system.mode = ni::DispatchMode::SingleQueue;
    system.outstandingPerCore = 2;

    // 2. Workload: a registry spec string. The default "herd" is the
    //    §5 HERD-like KV store (95/5 read/write, real hash table
    //    underneath); try "masstree:scan_ratio=0.02",
    //    "synthetic:dist=gev", or a composite such as
    //    "mix:herd=0.9,masstree-scan=0.1". Requests are built,
    //    served, and verified byte-for-byte through the simulated
    //    protocol.
    const app::WorkloadSpec workload =
        argc > 2 ? app::WorkloadSpec(argv[2]) : app::WorkloadSpec();

    // 3. Experiment: offered load in requests/second.
    double mrps = 15.0;
    if (argc > 1) {
        const sim::ErrorContext ctx("arrival_mrps");
        mrps = sim::parseReal(argv[1]);
    }
    core::ExperimentConfig cfg;
    cfg.system = system;
    cfg.workload = workload;
    cfg.arrivalRps = mrps * 1e6;
    cfg.warmupRpcs = 5000;
    cfg.measuredRpcs = 50000;

    std::printf("rpcvalet quickstart: %s @ %.1f Mrps on %s dispatch\n",
                workload.toString().c_str(), mrps,
                ni::dispatchModeName(system.mode).c_str());
    const core::RunStats stats = core::runExperiment(cfg);

    std::printf("\n  completions        %llu (verified end-to-end, "
                "%llu failures)\n",
                static_cast<unsigned long long>(stats.completions),
                static_cast<unsigned long long>(stats.verifyFailures));
    std::printf("  achieved           %.2f Mrps (offered %.2f)\n",
                stats.point.achievedRps / 1e6,
                stats.point.offeredRps / 1e6);
    std::printf("  mean service S-bar %.0f ns\n", stats.meanServiceNs);
    std::printf("  latency mean       %.2f us\n",
                stats.point.meanNs / 1e3);
    std::printf("  latency p50        %.2f us\n", stats.point.p50Ns / 1e3);
    std::printf("  latency p99        %.2f us\n", stats.point.p99Ns / 1e3);
    std::printf("  SLO (10 x S-bar)   %.2f us  ->  %s\n",
                10.0 * stats.meanServiceNs / 1e3,
                stats.point.p99Ns <= 10.0 * stats.meanServiceNs
                    ? "MET"
                    : "VIOLATED");

    // Per-class breakdown: one row per request class the workload
    // declares (for composites, every component class separately).
    std::printf("\n  per-class tails:\n");
    for (const core::ClassStats &cs : stats.perClass) {
        std::printf("    %-16s %s  %8.3f Mrps  p99 %8.2f us",
                    cs.name.c_str(),
                    cs.latencyCritical ? "critical" : "besteff.",
                    cs.achievedRps / 1e6, cs.p99Ns / 1e3);
        if (cs.sloNs > 0.0) {
            std::printf("  SLO %.1f us attained %.1f%%",
                        cs.sloNs / 1e3, 100.0 * cs.sloAttainment);
        }
        std::printf("\n");
    }
    std::printf("\nTry: ./quickstart 28   (close to saturation)\n"
                "     ./quickstart 3 mix:masstree-get=0.998,"
                "masstree-scan=0.002\n");
    return 0;
}
