/**
 * @file
 * Figure 7a: HERD on the three hardware queuing configurations
 * (16x1, 4x4, 1x16), p99 vs throughput, SLO = 10x measured S-bar.
 *
 * Paper results to reproduce in shape: 1x16 delivers ~29 Mrps under
 * SLO — 1.16x over 4x4 and 1.18x over 16x1 — plus up to 4x lower tail
 * latency before saturation.
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    auto args = bench::parseArgs(argc, argv);
    // The dispatch mode is this figure's axis.
    bench::dropModeAxis(args);

    bench::printHeader("Figure 7a: HERD, hardware queuing systems",
                       "16x1 vs 4x4 vs 1x16; SLO = 10x S-bar");

    // Fully declarative run: the workload is a registry spec (default
    // "herd", overridable with --workload).
    const app::WorkloadSpec workload =
        args.workload.empty() ? app::WorkloadSpec("herd")
                              : app::WorkloadSpec(args.workload);
    node::SystemParams sys;
    const double capacity = core::estimateCapacityRps(sys, workload);

    const std::vector<ni::DispatchMode> modes = {
        ni::DispatchMode::SingleQueue, ni::DispatchMode::PerBackendGroup,
        ni::DispatchMode::StaticHash};

    std::vector<stats::Series> all;
    double sbar_ns = 0.0;
    for (const auto mode : modes) {
        core::ExperimentConfig base;
        base.system.mode = mode;
        base.workload = workload;
        auto sweep = bench::makeSweep(args, base,
                                      ni::dispatchModeName(mode),
                                      capacity, 0.10, 1.02);
        const auto result = core::runSweep(sweep);
        all.push_back(result.series);
        if (mode == ni::DispatchMode::SingleQueue)
            sbar_ns = result.runs.front().meanServiceNs;
    }
    std::printf("%s\n",
                stats::formatSeriesTable("HERD tail-vs-throughput", all,
                                         /*latency_unit_us=*/true)
                    .c_str());

    const double slo = 10.0 * sbar_ns;
    bench::printSloSummary("Throughput under SLO (baseline = 16x1)", all,
                           slo);

    const auto r_1x16 = stats::throughputUnderSlo(all[0], slo);
    const auto r_4x4 = stats::throughputUnderSlo(all[1], slo);
    const auto r_16x1 = stats::throughputUnderSlo(all[2], slo);
    bench::claim("measured S-bar (ns)", 550.0, sbar_ns, 0.10);
    bench::claim("1x16 tput @SLO (Mrps)", 29.0,
                 r_1x16.met ? r_1x16.throughputRps / 1e6 : bench::notMet,
                 0.15);
    bench::claim("1x16 / 4x4 tput ratio", 1.16,
                 bench::sloRatio(r_1x16, r_4x4), 0.12);
    bench::claim("1x16 / 16x1 tput ratio", 1.18,
                 bench::sloRatio(r_1x16, r_16x1), 0.15);

    // "up to 4x lower tail latency before saturation": compare p99 at
    // the highest load where both are pre-saturation (~85%).
    const std::size_t at = (args.points * 85) / 100;
    if (at < all[0].points.size()) {
        const double ratio =
            all[2].points[at].p99Ns / all[0].points[at].p99Ns;
        std::printf("[info] p99(16x1)/p99(1x16) at %.0f%% load: %.1fx "
                    "(paper: up to 4x)\n",
                    100.0 * all[0].points[at].offeredRps / capacity,
                    ratio);
    }
    return 0;
}
