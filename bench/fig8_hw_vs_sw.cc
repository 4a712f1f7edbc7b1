/**
 * @file
 * Figure 8: hardware (RPCValet) versus software (MCS-locked shared
 * queue) 1x16 load balancing, four synthetic distributions.
 *
 * Paper results to reproduce in shape: software is competitive at low
 * load but saturates on lock contention; hardware delivers 2.3-2.7x
 * higher throughput under SLO. Even hardware 16x1 beats software
 * 1x16 (§6.2's corroboration of the dataplane work).
 */

#include <cstdio>

#include "common.hh"
#include "sim/distributions.hh"
#include "sync/mcs_queue.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    auto args = bench::parseArgs(argc, argv);
    // Both the mode and the workload are this figure's axes.
    bench::dropModeAxis(args);
    bench::dropWorkloadAxis(args);
    // The software knee is sharp (M/D/1 lock); resolve it with a
    // denser grid than the other figures need.
    args.points = std::max<std::size_t>(args.points, args.fast ? 8 : 14);

    bench::printHeader("Figure 8: 1x16 hardware vs software (MCS lock)",
                       "four synthetic distributions; SLO = 10x S-bar");

    double worst_ratio = 1e9;
    double best_ratio = 0.0;
    for (const auto kind : sim::allSyntheticKinds()) {
        const app::WorkloadSpec workload(
            "synthetic:dist=" + sim::syntheticKindName(kind));
        node::SystemParams sys;
        const double capacity = core::estimateCapacityRps(sys, workload);
        const auto name = sim::syntheticKindName(kind);

        std::vector<stats::Series> pair;
        double sbar_ns = 0.0;
        for (const auto mode : {ni::DispatchMode::SingleQueue,
                                ni::DispatchMode::SoftwarePull}) {
            core::ExperimentConfig base;
            base.system.mode = mode;
            base.workload = workload;
            const bool hw = mode == ni::DispatchMode::SingleQueue;
            // The software curve saturates on the MCS lock well below
            // core capacity, with a sharp M/D/1-style knee; sweep it
            // against its own (lock-bound) capacity so the knee is
            // resolved by the grid.
            const double lock_capacity =
                1e9 / sim::toNs(sync::mcsHandoff + sync::mcsCriticalSection);
            const double cap = hw ? capacity
                                  : std::min(capacity, lock_capacity);
            auto sweep = bench::makeSweep(
                args, base, name + (hw ? "_hw" : "_sw"), cap, 0.08,
                1.02);
            const auto result = core::runSweep(sweep);
            pair.push_back(result.series);
            if (hw)
                sbar_ns = result.runs.front().meanServiceNs;
        }
        std::printf("%s\n",
                    stats::formatSeriesTable(name, pair, true).c_str());

        const double slo = 10.0 * sbar_ns;
        bench::printSloSummary(
            sim::strfmt("%s: throughput under SLO (baseline = sw)",
                        name.c_str()),
            pair, slo);
        const auto hw_slo = stats::throughputUnderSlo(pair[0], slo);
        const auto sw_slo = stats::throughputUnderSlo(pair[1], slo);
        if (hw_slo.met && sw_slo.met) {
            const double ratio =
                hw_slo.throughputRps / sw_slo.throughputRps;
            worst_ratio = std::min(worst_ratio, ratio);
            best_ratio = std::max(best_ratio, ratio);
        }
    }

    // §6.2: "2.3-2.7x higher throughput under SLO, depending on the
    // request processing time distribution".
    bench::claim("min hw/sw tput ratio", 2.3, worst_ratio, 0.25);
    bench::claim("max hw/sw tput ratio", 2.7, best_ratio, 0.25);
    return 0;
}
