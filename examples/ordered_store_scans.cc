/**
 * @file
 * Example: latency-critical gets sharing a server with long ordered
 * scans (the paper's Masstree scenario, and the motivating case for
 * occupancy-aware dispatch).
 *
 *   $ ./ordered_store_scans [scan_percent]
 *
 * The blend is expressed through the composite workload spec —
 * "mix:masstree-get=W,masstree-scan=W'" — so the scan share is a
 * string parameter, and the per-class stats in RunStats report the
 * get and scan tails separately. Shows how the get tail degrades with
 * scan share under static 16x1 spreading versus RPCValet's 1x16,
 * which steers gets away from scan-occupied cores.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;

    double scan_pct = 1.0;
    if (argc > 1) {
        const sim::ErrorContext ctx("scan_percent");
        scan_pct = sim::parseReal(argv[1]);
    }
    const double scan_frac = scan_pct / 100.0;
    if (!(scan_frac > 0.0 && scan_frac < 1.0))
        sim::fatal("scan_percent must be in (0, 100)");

    // The whole workload is one spec string: weights select the blend.
    const app::WorkloadSpec workload(
        sim::strfmt("mix:masstree-get=%g,masstree-scan=%g",
                    1.0 - scan_frac, scan_frac));

    std::printf("Ordered store: %.1f%% scans (60-120 us) interleaved "
                "with gets (~1.25 us)\nworkload spec: %s\n\n",
                scan_pct, workload.toString().c_str());
    std::printf("%10s %12s %18s %18s %18s\n", "load", "offered",
                "16x1 get p99", "1x16 get p99", "1x16 scan p99");
    std::printf("%10s %12s %18s %18s %18s\n", "", "(Mrps)", "(us)",
                "(us)", "(us)");

    node::SystemParams sys;
    const double capacity = core::estimateCapacityRps(sys, workload);

    for (double u : {0.2, 0.4, 0.6, 0.8}) {
        double get_p99[2] = {0.0, 0.0};
        double scan_p99 = 0.0;
        int i = 0;
        for (const auto mode : {ni::DispatchMode::StaticHash,
                                ni::DispatchMode::SingleQueue}) {
            core::ExperimentConfig cfg;
            cfg.system.mode = mode;
            cfg.workload = workload;
            cfg.arrivalRps = u * capacity;
            cfg.warmupRpcs = 1000;
            cfg.measuredRpcs = 20000;
            const core::RunStats r = core::runExperiment(cfg);
            // perClass is ordered like the mix's components (sorted
            // by name): [masstree-get, masstree-scan].
            get_p99[i++] = r.perClass[0].p99Ns;
            if (mode == ni::DispatchMode::SingleQueue)
                scan_p99 = r.perClass[1].p99Ns;
        }
        std::printf("%10.1f %12.2f %18.2f %18.2f %18.2f\n", u,
                    u * capacity / 1e6, get_p99[0] / 1e3,
                    get_p99[1] / 1e3, scan_p99 / 1e3);
    }

    std::printf("\nWith static spreading, a get that lands behind a "
                "scan waits for it; RPCValet's dispatcher only "
                "double-books a scan-running core when every core is "
                "busy. The scan class has its own (huge) tail — "
                "recorded per class rather than discarded.\n");
    return 0;
}
